"""Experiment harness: dataset generation, pretraining, agent training over
seeds, audits, and report emission.

Exit codes: 0 on success; an error that ends a command exits with its class's
`exit_code`, from the one table in errors.py (any OSError exits 1).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import agents, analysis, bpr, envs, numerics
from .errors import AuditFailureError, BprlabError, RejectedInputError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = RejectedInputError.exit_code
EXIT_AUDIT = AuditFailureError.exit_code


def _output_dir(args) -> str:
    out = args.out or os.environ.get("BPR_OUTPUT_DIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    envs.atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                        allow_nan=False) + "\n")


def _apply_config_file(args, parser):
    """Values from --config fill in any flag still at its subcommand's default."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        try:
            file_cfg = json.load(fh)
        except ValueError as exc:
            raise RejectedInputError(f"config file {args.config} is not JSON: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise RejectedInputError("a config file holds one JSON object")
    # the flags' defaults live on the subcommand's parser, not the top-level one
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command_parser = subparsers.choices[args.command]
    actions = {a.dest: a for a in command_parser._actions if hasattr(args, a.dest)}
    for key, value in file_cfg.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise RejectedInputError(f"unknown config field {key!r}")
        _check_config_value(actions[dest], key, value)
        if getattr(args, dest) == command_parser.get_default(dest):
            setattr(args, dest, value)
    return args


def _check_config_value(action, key, value) -> None:
    """A config value must have the JSON type of the flag it stands for, and be a
    value the command line could give it: no string holds a NUL byte."""
    if action.nargs == 0:
        kinds = (bool,)
    else:
        kinds = {int: (int,), float: (int, float)}.get(action.type, (str,))
    items = value if isinstance(value, list) else [value]
    fits = (isinstance(value, list) == (action.nargs == "+") and len(items) > 0
            and all(type(v) in kinds and "\0" not in str(v) for v in items))
    if not fits and not (value is None and action.default is None):
        raise RejectedInputError(f"config field {key!r} has the wrong type: {value!r}")


# ---------------------------------------------------------------- behaviors


def _spec_number(spec: str, text: str, high: float) -> float:
    """A finite number in [0, high] from a behavior spec."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and 0.0 <= value <= high):
        raise RejectedInputError(f"behavior {spec!r}: {text!r} is not a number in [0, {high:g}]")
    return value


def _parse_pointmass_behavior(spec: str, env: envs.PointMassEnv):
    """'mixture:expert:0.5,medium:0.5' samples a behavior per episode by weight."""
    if spec.startswith("mixture:"):
        mix = []
        for part in spec[len("mixture:"):].split(","):
            name, sep, weight = part.rpartition(":")
            if not sep:
                raise RejectedInputError(f"behavior {spec!r}: {part!r} is not name:weight")
            mix.append((_spec_number(spec, weight, np.inf), envs.pointmass_behavior(name, env)))
        if not 0.0 < sum(w for w, _ in mix) < np.inf:
            raise RejectedInputError(f"behavior {spec!r}: the weights must have a finite, "
                                     "positive sum")
        return mix
    return envs.pointmass_behavior(spec, env)


def _gridworld_behavior(mdp: envs.TabularMDP, spec: str) -> envs.TabularPolicy:
    """'eps_greedy:0.3' mixes the optimal policy with uniform; 'uniform'."""
    if spec == "uniform":
        return envs.TabularPolicy.uniform(mdp.n_states, mdp.n_actions)
    if spec.startswith("eps_greedy:"):
        eps = _spec_number(spec, spec.split(":", 1)[1], 1.0)
        _, _, greedy = envs.value_iteration(mdp)
        return envs.epsilon_greedy_policy(greedy, eps)
    raise RejectedInputError(f"unknown gridworld behavior {spec!r}")


def _episode_returns(dataset: envs.OfflineDataset) -> np.ndarray:
    _, _, r, _, d = dataset.arrays()
    returns, total = [], 0.0
    for ri, di in zip(r, d):
        total += ri
        if di:
            returns.append(total)
            total = 0.0
    return np.array(returns) if returns else np.array([total])


# ---------------------------------------------------------------- commands


def cmd_gen_data(args) -> int:
    out = _output_dir(args)
    path = os.path.join(out, args.name or f"{args.task}-{args.behavior}-{args.seed}.jsonl")
    if args.task == "pointmass":
        env = envs.PointMassEnv()
        behavior = _parse_pointmass_behavior(args.behavior, env)
        dataset = envs.generate_dataset(env, behavior, args.n, args.seed,
                                        behavior_tag=f"pointmass:{args.behavior}")
    elif args.task == "gridworld":
        mdp = envs.make_gridworld()
        policy = _gridworld_behavior(mdp, args.behavior)
        dataset = envs.generate_dataset(mdp, policy, args.n, args.seed,
                                        behavior_tag=f"gridworld:{args.behavior}")
    else:
        _, dataset, _ = envs.build_counterexample()
    envs.save_dataset(dataset, path)
    ep = _episode_returns(dataset)
    print(f"wrote {path}: n={dataset.n} behavior={dataset.behavior_tag!r} "
          f"episode return mean={ep.mean():.4f} std={ep.std():.4f}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    out = _output_dir(args)
    dataset = envs.load_dataset(args.dataset)
    config = bpr.PretrainConfig(steps=args.steps, batch_size=args.batch_size,
                                seed=args.seed, repr_dim=args.repr_dim,
                                learning_rate=args.learning_rate,
                                encoder_hidden=tuple(args.hidden),
                                predictor_hidden=tuple(args.hidden))
    encoder, trace, _, n_dropped = bpr.pretrain(dataset, config)
    prefix = os.path.join(out, args.name or "encoder")
    final_loss = float(trace[-1]) if len(trace) else None
    bpr.save_encoder(encoder, prefix + ".ckpt",
                     bpr.make_manifest(config, dataset, final_loss))
    lines = ["step,loss"] + [f"{i},{v!r}" for i, v in enumerate(trace)]
    envs.atomic_write(prefix + "-loss.csv", "\n".join(lines) + "\n")
    shown = "none" if final_loss is None else f"{final_loss:.6f}"
    print(f"wrote {prefix}.ckpt (dropped {n_dropped} near-zero actions, final loss {shown})")
    return EXIT_OK


def _train_one_seed(args, dataset, seed, encoder, out):
    label = args.label or args.algo
    config = agents.AgentConfig(
        algorithm=args.algo,
        use_encoder=encoder is not None or args.co_train,
        co_train_encoder=args.co_train,
        gradient_steps=args.gradient_steps,
        batch_size=args.batch_size,
        seed=seed,
        gamma=args.gamma,
        learning_rate=args.learning_rate,
        hidden=tuple(args.hidden),
        n_wedge=args.n_wedge,
        cql_alpha=args.cql_alpha,
        eval_every=args.eval_every,
    )
    row = {"seed": seed}
    trace_path = os.path.join(out, f"{label}-seed{seed}-trace.csv")
    if args.task == "pointmass":
        env = envs.PointMassEnv()
        trainer = {"bc": agents.train_bc, "td3bc": agents.train_td3bc,
                   "cql": agents.train_cql}.get(args.algo)
        if trainer is None:
            raise RejectedInputError(f"{args.algo} is not a point-mass algorithm")
        probe_batch = analysis.make_probe_batch(dataset, 512, seed=0) if args.probe_ed else None
        result = trainer(dataset, config, encoder, env,
                         probe_batch=probe_batch, probe_every=args.probe_ed)
        mean, std, _ = agents.evaluate_return(
            agents._rollout_policy(result.policy, result.encoder, config.use_encoder),
            env, config.eval_episodes, seed=seed * 7919 + 1)
        row.update(final_return_mean=mean, final_return_std=std)
        if args.threshold is not None:  # every trace row holds an eval return
            row["steps_to_threshold"] = next((t["step"] for t in result.trace
                                              if t["eval_return_mean"] >= args.threshold), None)
        ed = analysis.effective_dimension_trace(result.psi_trace)
        if ed:
            row["effective_dimension_final"] = ed[-1][1]
        ed_rows = [{"step": s, "effective_dimension": c} for s, c in ed]
        agents.write_trace_csv(result.trace + ed_rows, trace_path)
    elif args.task == "gridworld":
        mdp = envs.make_gridworld()
        if args.probe_bounds:  # the bounds need the true behavior; "" for a tag without ':'
            behavior = _gridworld_behavior(mdp, dataset.behavior_tag.partition(":")[2])
        if args.algo == "spibb":
            result = agents.train_spibb_tabular(dataset, mdp.n_states, mdp.n_actions, config)
            row["delta_hat"] = result.j_hat_out - result.j_hat_behavior
            trace, verify = [], analysis.verify_theorem2
        elif args.algo == "cql":
            result = agents.train_cql(dataset, config,
                                      tabular_shape=(mdp.n_states, mdp.n_actions))
            trace, verify = result.trace, analysis.verify_theorem3
        else:
            raise RejectedInputError(f"{args.algo} is not a gridworld algorithm")
        _, j_out = envs.evaluate_policy_exact(mdp, result.policy)
        row.update(final_return_mean=j_out, final_return_std=0.0)
        if args.probe_bounds:
            row["bound_report"] = dataclasses.asdict(verify(mdp, dataset, result, behavior))
        agents.write_trace_csv(trace, trace_path)
    row["trace_file"] = os.path.basename(trace_path)
    return row


# a point-mass reward may differ from -||s2[:2] - goal|| by at most this; generated
# files match to within 2.3e-16
POINTMASS_REWARD_TOL = 1e-9


def _fit_task(args, dataset: envs.OfflineDataset) -> None:
    """Set the discount and check the dataset against the task, before any
    gradient step. The gridworld's discount belongs to its MDP; --gamma may only
    repeat it, and every reward must lie in its [-r_max, r_max]. A point-mass
    reward must be the task's reward for its next state."""
    if args.task == "pointmass":
        args.gamma = agents.AgentConfig.gamma if args.gamma is None else args.gamma
        dims = (envs.PointMassEnv.state_dim, envs.PointMassEnv.action_dim)
    else:
        mdp = envs.make_gridworld()
        if args.gamma is not None and args.gamma != mdp.discount:
            raise RejectedInputError(f"--gamma {args.gamma} disagrees with the gridworld's "
                                     f"discount {mdp.discount}")
        args.gamma = mdp.discount
        dims = (mdp.n_states, mdp.n_actions)
        if np.any(np.abs(dataset.rewards) > mdp.r_max):
            raise RejectedInputError(f"a reward lies outside the gridworld's "
                                     f"[-{mdp.r_max:g}, {mdp.r_max:g}]")
    if (dataset.state_dim, dataset.action_dim) != dims:
        raise RejectedInputError(f"{args.task} needs state_dim/action_dim {dims[0]}/{dims[1]}, "
                                 f"the dataset has {dataset.state_dim}/{dataset.action_dim}")
    if args.task == "pointmass":
        _, _, r, s2, _ = dataset.arrays()
        task_r = -np.linalg.norm(s2[:, :2] - envs.PointMassEnv().goal, axis=1)
        bad = np.flatnonzero(np.abs(r - task_r) > POINTMASS_REWARD_TOL)
        if bad.size:
            raise RejectedInputError(f"the reward of row {bad[0]}, {float(r[bad[0]])!r}, is not "
                                     f"the point-mass reward {float(task_r[bad[0]])!r} of its "
                                     "next state")


def cmd_train(args) -> int:
    out = _output_dir(args)
    dataset = envs.load_dataset(args.dataset)
    _fit_task(args, dataset)
    encoder = bpr.load_encoder(args.encoder, frozen=not args.co_train) if args.encoder else None
    seeds = args.seeds.split(",")
    if not all(s.strip().isdecimal() for s in seeds):
        raise RejectedInputError(f"--seeds takes comma-separated seeds >= 0, not {args.seeds!r}")
    seeds = [int(s) for s in seeds]
    # co-training updates the encoder in place, so each seed starts from its own copy
    rows = [_train_one_seed(args, dataset, seed,
                            encoder.copy() if args.co_train and encoder else encoder, out)
            for seed in seeds]
    finals = [r["final_return_mean"] for r in rows]
    label = args.label or args.algo
    summary = {
        "task": args.task,
        "algo": args.algo,
        "label": label,
        "seeds": seeds,
        "per_seed": rows,
        "aggregate": {
            "mean": float(np.mean(finals)),
            "std": float(np.std(finals)),
            "iqm": analysis.iqm(finals),
        },
    }
    path = os.path.join(out, f"{label}-summary.json")
    _write_json(path, summary)
    print(f"wrote {path}")
    return EXIT_OK


def _audit_invariants() -> dict:
    """Small always-on invariant suites next to the counterexample audit."""
    rng = np.random.default_rng(0)
    worst_grad = 0.0
    for _ in range(10):
        model = numerics.init_mlp([3, 5, 2], ["tanh", "identity"], rng)
        x = rng.normal(size=3)
        w = rng.normal(size=2)
        y, cache = numerics.forward(model, x)
        g, _ = numerics.backward(model, cache, w)
        flat = model.flat_parameters()
        h = 1e-5
        for i in rng.choice(flat.size, size=8, replace=False):
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            mp, mm = model.copy(), model.copy()
            mp.set_flat_parameters(fp)
            mm.set_flat_parameters(fm)
            fd = (numerics.forward(mp, x)[0] @ w - numerics.forward(mm, x)[0] @ w) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            worst_grad = max(worst_grad, abs(fd - g[i]) / denom)
    if worst_grad > 1e-4:
        raise AuditFailureError(f"gradient check: worst relative error {worst_grad}")

    worst_eig = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 12))
        m = rng.normal(size=(d, d))
        m = m + m.T
        eigs = numerics.symmetric_eigenvalues(m)
        trace_err = abs(eigs.sum() - np.trace(m))
        fro_err = abs(np.sum(eigs**2) - np.sum(m * m))
        worst_eig = max(worst_eig, trace_err, fro_err)
    if worst_eig > 1e-8:
        raise AuditFailureError(f"eigensolver invariants violated by {worst_eig}")

    violations = 0
    for _ in range(100):
        mdp = envs.random_mdp(4, 3, rng, discount=float(rng.uniform(0.5, 0.95)))
        pa = envs.TabularPolicy(rng.dirichlet(np.ones(3), size=4))
        pb = envs.TabularPolicy(rng.dirichlet(np.ones(3), size=4))
        bound, gap = analysis.tvd_suboptimality_bound(mdp, pa, pb)
        if bound < gap - 1e-9:
            violations += 1
    if violations:
        raise AuditFailureError(f"TVD bound violated in {violations} instances")
    return {
        "gradient_worst_relative_error": worst_grad,
        "eigensolver_worst_invariant_error": worst_eig,
        "tvd_bound_violations": violations,
    }


def cmd_audit(args) -> int:
    report = analysis.run_counterexample_audit(reward_perturbation=args.perturb_reward)
    report.update(_audit_invariants())
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in sorted(report.items()):
            print(f"{key}: {value}")
    if args.out:
        _write_json(os.path.join(_output_dir(args), "audit.json"), report)
    return EXIT_OK


def _is_summary(s) -> bool:
    """Whether s has the keys and types of a train summary that `report` reads."""
    if not (isinstance(s, dict) and isinstance(s.get("task"), str)
            and isinstance(s.get("label"), str) and isinstance(s.get("seeds"), list)
            and isinstance(s.get("per_seed"), list) and isinstance(s.get("aggregate"), dict)):
        return False
    return (all(isinstance(s["aggregate"].get(k), (int, float)) for k in ("mean", "std", "iqm"))
            and all(isinstance(r, dict) and isinstance(r.get("trace_file"), str)
                    for r in s["per_seed"]))


def _load_summaries(paths):
    summaries = []
    for p in paths:
        with open(p) as fh:
            try:
                s = json.load(fh)
            except ValueError as exc:
                raise RejectedInputError(f"summary {p} is not JSON: {exc}") from None
        if not _is_summary(s):
            raise RejectedInputError(f"{p} is not a train summary")
        s["_dir"] = os.path.dirname(os.path.abspath(p))
        summaries.append(s)
    return summaries


def _plot_data_from_traces(summary) -> list[dict]:
    by_step: dict[int, list[float]] = {}
    for row in summary["per_seed"]:
        path = os.path.join(summary["_dir"], row["trace_file"])
        if not os.path.exists(path):
            raise RejectedInputError(f"summary {summary['label']!r} names trace {path}, "
                                     "which does not exist")
        with open(path) as fh:
            for rec in csv.DictReader(fh):
                if rec.get("eval_return_mean"):
                    try:
                        step, value = int(rec.get("step")), float(rec["eval_return_mean"])
                    except (TypeError, ValueError):
                        raise RejectedInputError(f"trace {path}: bad row {rec}") from None
                    by_step.setdefault(step, []).append(value)
    return [{"step": s, "mean": float(np.mean(v)), "std": float(np.std(v))}
            for s, v in sorted(by_step.items())]


def cmd_report(args) -> int:
    out = _output_dir(args)
    summaries = _load_summaries(args.summaries)
    tasks = {s["task"] for s in summaries}
    if len(tasks) > 1:
        raise RejectedInputError(f"summaries mix tasks {sorted(tasks)}; refusing to compare")
    header = "| variant | seeds | final mean | final std | IQM |"
    sep = "|---|---|---|---|---|"
    md = [header, sep]
    csv_rows = ["variant,seeds,final_mean,final_std,iqm"]
    for s in summaries:
        agg = s["aggregate"]
        md.append(f"| {s['label']} | {len(s['seeds'])} | {agg['mean']:.4f} "
                  f"| {agg['std']:.4f} | {agg['iqm']:.4f} |")
        csv_rows.append(f"{s['label']},{len(s['seeds'])},{agg['mean']!r},{agg['std']!r},{agg['iqm']!r}")
        plot = _plot_data_from_traces(s)
        if plot:
            lines = ["step,mean,std"] + [f"{p['step']},{p['mean']!r},{p['std']!r}" for p in plot]
            envs.atomic_write(os.path.join(out, f"{s['label']}-curve.csv"), "\n".join(lines) + "\n")
    envs.atomic_write(os.path.join(out, "comparison.md"), "\n".join(md) + "\n")
    envs.atomic_write(os.path.join(out, "comparison.csv"), "\n".join(csv_rows) + "\n")
    print("\n".join(md))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bprlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output dir (default $BPR_OUTPUT_DIR or .)")
        p.add_argument("--config", default=None, help="JSON config file; flags override it")

    g = sub.add_parser("gen-data", help="generate an offline dataset")
    g.add_argument("--task", required=True, choices=["pointmass", "gridworld", "counterexample"])
    g.add_argument("--behavior", default="expert")
    g.add_argument("--n", type=int, default=20000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--name", default=None)
    common(g)
    g.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain and freeze a state encoder")
    p.add_argument("--dataset", required=True)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repr-dim", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=3e-4)
    p.add_argument("--hidden", type=int, nargs="+", default=[256, 256])
    p.add_argument("--name", default=None)
    common(p)
    p.set_defaults(func=cmd_pretrain)

    t = sub.add_parser("train", help="train an offline agent across seeds")
    t.add_argument("--task", required=True, choices=["pointmass", "gridworld"])
    t.add_argument("--dataset", required=True)
    t.add_argument("--algo", required=True, choices=["bc", "td3bc", "cql", "spibb"])
    t.add_argument("--encoder", default=None)
    t.add_argument("--co-train", action="store_true")
    t.add_argument("--seeds", default="0")
    t.add_argument("--gradient-steps", type=int, default=5000)
    t.add_argument("--batch-size", type=int, default=256)
    t.add_argument("--gamma", type=float, default=None,
                   help="discount (default 0.99; gridworld always uses its MDP's 0.95)")
    t.add_argument("--learning-rate", type=float, default=3e-4)
    t.add_argument("--hidden", type=int, nargs="+", default=[64, 64])
    t.add_argument("--n-wedge", type=float, default=10.0)
    t.add_argument("--cql-alpha", type=float, default=1.0)
    t.add_argument("--eval-every", type=int, default=500)
    t.add_argument("--threshold", type=float, default=None)
    t.add_argument("--probe-ed", type=int, default=0, help="probe effective dimension every N steps")
    t.add_argument("--probe-bounds", action="store_true")
    t.add_argument("--label", default=None)
    common(t)
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("audit", help="counterexample and invariant audits")
    a.add_argument("--json", action="store_true")
    a.add_argument("--perturb-reward", type=float, default=0.0,
                   help="test hook: corrupt one counterexample reward")
    common(a)
    a.set_defaults(func=cmd_audit)

    r = sub.add_parser("report", help="comparison tables and plot data")
    r.add_argument("summaries", nargs="+")
    common(r)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a computed value that matters passes bpr.check_finite, so an overflow
        # shows as one error line, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            args = _apply_config_file(args, parser)
            return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BprlabError as exc:
        if isinstance(exc, AuditFailureError):
            print(json.dumps({"audit_failed": True, "detail": str(exc)}), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
