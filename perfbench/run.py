"""Study benchmark of varsched: time to a dual optimum, then Monte Carlo dispatch.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-solve --seed 0 --seconds 30 --trace 0

The run builds its workload's instance from the checkout's ``src``
(set-up), then repeats whole rounds of the study through the public
CLI, ``varsched.cli.main``: ``optimize`` then ``simulate`` per risk
level.  A further round starts only while it is expected to end within
``--seconds``; at least two rounds run.  Every output is then checked
apart from the program (see ``checks.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or per-layer ones with ``--trace 1``).
"""

import time

# Set-up is timed from here, the first line the interpreter runs of the
# benchmark: importing numpy and the program counts, as it does for a
# user, while the interpreter's own start-up before this line does not.
T_START = time.perf_counter()

import os  # noqa: E402

# One thread per process: the workloads measure the program's own code,
# and a threaded BLAS would let the machine's load leak into them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI reads VARSCHED_* overrides (mode, tolerance, workers, penalty).
for _var in [v for v in os.environ if v.startswith("VARSCHED_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_program():
    if not (SRC / "varsched" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import varsched
    from varsched import bench, cli, oracles, pwl, simulate, synth, treefiles
    if Path(varsched.__file__).resolve().parent != SRC / "varsched":
        sys.exit(f"perfbench: imported varsched from {varsched.__file__}, "
                 f"not from {SRC}")
    return {"bench": bench, "cli": cli, "oracles": oracles, "pwl": pwl,
            "simulate": simulate, "synth": synth, "treefiles": treefiles}


def _run_cli(cli, argv) -> None:
    """One CLI command; a failure shows in its missing or wrong outputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        print(f"perfbench: varsched {argv[0]} exited {code}: "
              f"{err.getvalue().strip()}", file=sys.stderr)


def _peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def best_of_rounds(rounds, kind: str) -> float:
    """Seconds of the ``kind`` commands of a round, each at its fastest.

    Every round runs the same commands on the same inputs, so a command
    that is slower in one round than in another was slowed by the
    machine, not by the program: on a shared host the speed drops twofold
    for stretches of seconds.  Each command's fastest round is kept, as
    ``timeit`` advises, and the commands of the kind are summed.
    """
    return sum(min(r[i][1] for r in rounds)
               for i, (k, _) in enumerate(rounds[0]) if k == kind)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = _import_program()
    import study
    import spans
    if args.workload not in study.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(study.WORKLOADS)}")
    w = study.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(mods)

    # ---- set-up: program imported, instance built and written
    base = OUT / w.name
    shutil.rmtree(base, ignore_errors=True)
    inst = base / "inst"
    inst.mkdir(parents=True)
    cfg = w.config(mods["bench"].preset_config, args.seed)
    tree, scenarios = mods["synth"].generate_synthetic(cfg)
    treefiles = mods["treefiles"]
    treefiles.save_tree(tree, str(inst / "tree.json"))
    treefiles.save_units(cfg.units, str(inst / "units.json"))
    treefiles.save_scenarios(scenarios, str(inst / "scenarios.json"))
    setup_s = time.perf_counter() - T_START

    # ---- timed rounds
    cli = mods["cli"]
    rounds = []                    # per round: (kind, seconds) of each command
    begin = time.perf_counter()
    while True:
        k = len(rounds) + 1
        if tracer:
            tracer.phase = f"round{k}"
        times = []
        for kind, cmd in study.commands(w, str(inst), str(base / f"round{k}")):
            span = tracer.open("cli." + kind) if tracer else None
            t0 = time.perf_counter()
            _run_cli(cli, cmd)
            times.append((kind, time.perf_counter() - t0))
            if tracer:
                tracer.close(span)
        rounds.append(times)
        elapsed = time.perf_counter() - begin
        if len(rounds) >= 2 and elapsed + elapsed / len(rounds) > args.seconds:
            break
    peak_rss = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    # ---- checks, apart from the program
    import checks
    first = str(base / "round1")
    verdicts = checks.judge(w, tree, cfg.units, scenarios, first)
    per_round = [verdicts.ops] + [
        checks.same_outputs(first, str(base / f"round{k}"), w, verdicts.ops)
        for k in range(2, len(rounds) + 1)]
    attempted = sum(len(ops) for ops in per_round)
    failures = [(key, r) for ops in per_round for key, r in ops.items()
                if r is not None]
    unexpected = [(key, r) for key, r in failures
                  if not checks.allowed(w, key, r)]
    for key, reason in sorted(set(failures), key=str):
        tag = "known fault" if checks.allowed(w, key, reason) else "FAILED"
        print(f"perfbench: {tag}: {key}: {reason}", file=sys.stderr)

    if tracer:
        tracer.write(base / "spans.json")
        metrics = tracer.metrics(len(rounds), verdicts.max_shortfall)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (best_of_rounds(rounds, "optimize"), "s"),
            "simulate_s": (best_of_rounds(rounds, "simulate"), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    print(f"perfbench: {w.name} seed {args.seed}: {len(rounds)} round(s), "
          "solve/simulate s per round " + ", ".join(
              "{:.3f}/{:.3f}".format(*(sum(t for kind, t in r if kind == c)
                                       for c in ("optimize", "simulate")))
              for r in rounds), file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
