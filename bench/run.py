"""Benchmark of the mfvol pipeline.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload estimate --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run builds the workload's inputs in one separate
process, three times (``setup_s`` is the median). It then runs the
workload's ``mfvol`` subcommands as cold subprocesses, one at a time, in
whole rounds: at least two, and more until ``--seconds`` of them have
passed. Last, it checks their outputs against the reference
computations in ``reference.py``. With ``--trace 1`` it
runs the traced suite described in README.md and reports per-layer
metrics instead. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# The pipeline is single-threaded; pin every BLAS/OpenMP pool to one
# thread, here and in each mfvol process, before numpy is imported.
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
# Two rounds at least: a run whose first round is slow still gets a
# second sample, instead of ending on the slow one.
MIN_ROUNDS = 2
IMPORT_REPEATS = 3
STEP_REPEATS = 25
IMPORT_TIMER = ("import time; t = time.perf_counter(); import mfvol.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict[str, str]:
    # a fixed hash seed takes one source of layout noise out of the timings
    env = dict(os.environ, **THREADS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC
    return env


def run_cold(argv: list[str], cwd: str) -> tuple[float, float, int, str]:
    """One cold ``python3 -m mfvol`` process: wall s, peak RSS MB, exit
    code and the tail of its stderr."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mfvol", *argv], cwd=cwd,
                            env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err[-400:]


def python(args: list[str]) -> str:
    out = subprocess.run([sys.executable, *args], env=child_env(),
                         cwd=ROOT, check=True, capture_output=True, text=True)
    return out.stdout


def digest(paths: list[str]) -> list[str]:
    out = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                out.append(hashlib.sha256(fh.read()).hexdigest())
        except OSError:
            out.append("missing")
    return out


def tree_digest(top: str) -> dict[str, str]:
    files = sorted(os.path.relpath(os.path.join(d, f), top)
                   for d, _, names in os.walk(top) for f in names)
    return dict(zip(files, digest([os.path.join(top, f) for f in files])))


def run_checks(checks: dict, labels: list[str]) -> dict[str, list[str]]:
    """label -> problems; a check that raises is a problem too."""
    out = {}
    for label in labels:
        try:
            out[label] = checks[label]()
        except Exception as exc:          # a broken output must not stop the run
            out[label] = [f"check raised {type(exc).__name__}: {exc}"]
    return out


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------

def build_inputs(seed: int, repeats: int, out: str, names: list[str]
                 ) -> dict[str, list[float]]:
    """Set-up in one separate process, so that this one stays small."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "build_inputs.py")
    return json.loads(python([script, str(seed), str(repeats), out, *names]))


def measure(name: str, seed: int, seconds: float, work: str, tally: Tally
            ) -> dict[str, float]:
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    setup_times = build_inputs(seed, SETUP_REPEATS, work, [name])[name]
    inputs = os.path.join(work, name, "setup0")
    first = tree_digest(inputs)
    for k in range(1, SETUP_REPEATS):
        again = os.path.join(work, name, f"setup{k}")
        if tree_digest(again) != first:
            tally.problems.append(f"set-up {k} wrote other bytes than set-up 0")
        shutil.rmtree(again)

    round_times: list[float] = []
    peak_mb = 0.0
    first_digests: dict[str, list[str]] = {}
    runs: list[tuple[str, list[str]]] = []
    first_out = ""
    while len(round_times) < MIN_ROUNDS or sum(round_times) < seconds:
        out = os.path.join(work, f"round{len(round_times)}")
        os.makedirs(out)
        ops = w.ops(inputs, out)
        start = time.perf_counter()
        results = [run_cold(op.argv, work) for op in ops]
        round_times.append(time.perf_counter() - start)
        peak_mb = max([peak_mb] + [mb for _, mb, _, _ in results])
        for op, (_, _, code, err) in zip(ops, results):
            problems = [f"exit {code}: {err.strip()}"] if code else []
            got = digest(op.outputs)
            if not first_out:
                first_digests[op.label] = got
            elif got != first_digests[op.label]:
                problems.append("output differs from the first round")
            runs.append((op.label, problems))
        if not first_out:
            first_out = out
        else:
            shutil.rmtree(out)

    # the first round's outputs are checked once every cold process has run
    checked = run_checks(w.check(inputs, first_out), list(first_digests))
    for k, (label, problems) in enumerate(runs):
        tally.op(label, problems + (checked[label] if k < len(checked) else []))
    try:
        quality = w.quality(inputs, first_out)
    except Exception as exc:              # reported as a failed check
        quality = {}
        tally.problems.append(f"quality: {type(exc).__name__}: {exc}")

    print(f"{name}: {len(round_times)} round(s) "
          f"{[round(t, 3) for t in round_times]} s, set-up "
          f"{[round(t, 3) for t in setup_times]} s", file=sys.stderr)
    return {"wall_s": statistics.median(round_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_mb, **quality}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

# The traced suite runs every workload's operations; ablate reads the
# panel that forecast's set-up builds, which holds all of its inputs.
SUITE = (("estimate", "estimate"), ("forecast", "forecast"),
         ("ablate", "forecast"))


def run_pass(top: str, seed: int, recorder=None) -> list[tuple[str, str]]:
    """Set-up and operations of the suite, in-process; returns the
    (label, exit) of each operation, exit being "" on success."""
    from contextlib import nullcontext

    from workloads import WORKLOADS, run_cli

    def span(name):
        return recorder.span(name) if recorder is not None else nullcontext()

    runs = []
    for name, inputs_of in SUITE:
        d = os.path.join(top, inputs_of, "in")
        if inputs_of == name:
            with span(f"{name}/setup"):
                WORKLOADS[name].setup(d, seed)
        out = os.path.join(top, name, "out")
        os.makedirs(out)
        for op in WORKLOADS[name].ops(d, out):
            with span(f"{name}/{op.argv[0]}"):
                try:
                    code = run_cli(op.argv)
                except Exception as exc:  # an uncaught crash fails the op
                    code = f"{type(exc).__name__}: {exc}"
            runs.append((op.label, f"exit {code}" if code else ""))
    return runs


def trace(seed: int, work: str, tally: Tally) -> dict[str, float]:
    import reference as ref
    import tracing
    from workloads import GROUPS, WORKLOADS

    # untimed: puts the interpreter's and the libraries' files in the page
    # cache (a measured run gets this from its set-up process)
    python(["-c", "import mfvol.cli"])
    began = time.perf_counter()
    stages: list[str] = []

    def stage(label: str) -> None:
        stages.append(f"{label} {time.perf_counter() - began:.1f}")

    import_times = [float(python(["-c", IMPORT_TIMER]))
                    for _ in range(IMPORT_REPEATS)]
    stage("imports")

    import mfvol.cli  # noqa: F401  (untimed: both passes find it loaded)

    plain = os.path.join(work, "untraced")
    start = time.perf_counter()
    plain_runs = run_pass(plain, seed)
    untraced_s = time.perf_counter() - start
    stage("untraced")

    # the same operations as cold processes, on the untraced pass's inputs
    cold: dict[str, list[float]] = {}
    cold_ops = []
    for name, inputs_of in SUITE:
        w = WORKLOADS[name]
        d = os.path.join(plain, inputs_of, "in")
        out = os.path.join(work, "cold", name)
        os.makedirs(out)
        ops = w.ops(d, out)
        cold_ops += ops
        results = [run_cold(op.argv, work) for op in ops]
        checked = run_checks(w.check(d, out), [op.label for op in ops])
        for op, (wall, _, code, err) in zip(ops, results):
            cold.setdefault(op.argv[0], []).append(wall)
            problems = [f"exit {code}: {err.strip()}"] if code else []
            tally.op(f"cold {op.label}", problems + checked[op.label])
    stage("cold")

    from mfvol import transformer as tfm

    recorder = tracing.Recorder()
    traced = os.path.join(work, "traced")
    saved = tracing.install(recorder)
    try:
        start = time.perf_counter()
        traced_runs = run_pass(traced, seed, recorder)
        traced_s = time.perf_counter() - start
    finally:
        tracing.restore(saved)
    stage("traced")

    # both in-process passes must write the bytes the cold processes wrote
    for name, inputs_of in SUITE:
        if name == inputs_of and tree_digest(os.path.join(traced, name, "in")) \
                != tree_digest(os.path.join(plain, name, "in")):
            tally.problems.append(f"traced {name} set-up wrote other bytes")
    for top, runs in ((plain, plain_runs), (traced, traced_runs)):
        twins = [twin for name, inputs_of in SUITE for twin in WORKLOADS[name].ops(
            os.path.join(top, inputs_of, "in"), os.path.join(top, name, "out"))]
        for (label, exit_), op, twin in zip(runs, cold_ops, twins):
            problems = [exit_] if exit_ else []
            if digest(op.outputs) != digest(twin.outputs):
                problems.append("in-process output differs from cold output")
            tally.op(f"in-process {label}", problems)

    # each ablation group's report row, from the captured model and windows
    rows = ref.read_report(os.path.join(traced, "ablate", "out", "ablation.csv"))
    predicted = [(args, out) for i, args, out in recorder.captures
                 if recorder.spans[i].name == "tfm.predict"
                 and recorder.root_of(i) == "ablate/ablate"]
    for g, row, ((model, dataset), out) in zip(GROUPS, rows, predicted):
        xn = (dataset.X - model.feature_mean) / model.feature_std
        want = ref.encoder_forward(model.weights, model.config.n_layers,
                                   model.config.n_heads, xn)
        want = want * model.target_std + model.target_mean
        tally.problems += [f"traced ablate {g}: {p}" for p in
                           ref.mismatch("predictions", out, want)
                           + ref.compare_row(g, row, ref.loss_row(want, dataset.y))]
    if len(predicted) != len(GROUPS):
        tally.problems.append(f"captured {len(predicted)} ablate predictions")

    # one training batch through forward_batch, per group of the ablation
    step_forward = []
    for i, args, _ in recorder.captures:
        if recorder.spans[i].name == "tfm.gradient" \
                and recorder.root_of(i) == "ablate/ablate":
            weights, config, x, _ = args
            times = []
            for _ in range(STEP_REPEATS):
                start = time.perf_counter()
                tfm.forward_batch(x, weights, config)
                times.append(time.perf_counter() - start)
            step_forward.append(statistics.median(times))

    stage("checks")
    r = recorder
    own = r.self_times()

    def spans(name, root, parent=""):
        return r.select(name, root, parent)

    def mean_ms(name, root, parent=""):
        idx = spans(name, root, parent)
        return 1e3 * r.total(idx) / len(idx)

    ll = spans("gm.log_likelihood", "estimate/midas-fit")
    gradient_ms = mean_ms("tfm.gradient", "ablate/ablate")
    step_forward_ms = 1e3 * statistics.fmean(step_forward)
    by_group = {row["group"]: row["mse"] for row in rows}
    metrics = {
        "cli.import_s": statistics.median(import_times),
        "cli.rv_s": cold["rv"][0],
        "cli.pca_s": cold["pca"][0],
        "cli.midas_fit_s": cold["midas-fit"][0],
        "cli.ablate_s": cold["ablate"][0],
        "cli.predict_s": statistics.median(cold["predict"]),
        "cli.evaluate_s": statistics.median(cold["evaluate"]),
        "cli.read_factors_rows_per_s":
            r.counts["factor_rows@forecast/predict"]
            / r.total(spans("cli.read_factors", "forecast/predict")),
        "cli.join_h_ms": mean_ms("cli.join_h", "forecast/predict"),
        "marketdata.load_intraday_bars_per_s":
            r.counts["bars@estimate/rv"]
            / r.total(spans("marketdata.load_intraday", "estimate/rv")),
        "marketdata.load_daily_ms": 1e3 * sum(
            r.total(spans(f"marketdata.load_{kind}", "estimate/pca"))
            for kind in ("daily", "attention", "monthly")),
        "marketdata.align_ms": 1e3 * r.total(
            spans("marketdata.align_mixed_frequency", "estimate/pca")),
        "realized_vol.compute_rv_series_ms": 1e3 * r.total(
            spans("realized_vol.compute_rv_series", "estimate/rv")),
        "features.extract_factor_panel_ms": 1e3 * r.total(
            spans("features.extract_factor_panel", "estimate/pca")),
        "garch_midas.fit_s": r.total(spans("gm.fit", "estimate/midas-fit")),
        "garch_midas.log_likelihood_calls": len(ll),
        "garch_midas.log_likelihood_us": 1e6 * sum(own[i] for i in ll) / len(ll),
        "garch_midas.nm_evals_best_restart":
            r.counts["nm_evals_best_restart@estimate/midas-fit"],
        "garch_midas.filter_volatility_ms":
            mean_ms("gm.filter_volatility", "estimate/midas-fit"),
        "transformer.train_s": r.total(spans("tfm.train", "ablate/ablate")),
        "transformer.gradient_calls": len(spans("tfm.gradient", "ablate/ablate")),
        "transformer.gradient_ms": gradient_ms,
        "transformer.epoch_forward_ms":
            mean_ms("tfm.forward_batch", "ablate/ablate", parent="tfm.train"),
        "transformer.step_forward_ms": step_forward_ms,
        "transformer.step_backward_ms": gradient_ms - step_forward_ms,
        "transformer.predict_ms": mean_ms("tfm.predict", "forecast/predict"),
        "transformer.load_model_ms": mean_ms("tfm.load_model", "forecast/predict"),
        "transformer.save_model_ms": mean_ms("tfm.save_model", "forecast/setup"),
        "autodiff.tensors_per_step": r.counts["tensors_in_gradient"]
            / len(r.select("tfm.gradient")),
        "evaluation.evaluate_ms": mean_ms("evaluation.evaluate",
                                          "forecast/evaluate"),
        "evaluation.mse_ratio_g4_g1": by_group["G4"] / by_group["G1"],
        "simlab.gen_full_scenario_s": r.total(r.select("simlab.gen_full_scenario")),
        "trace.overhead_s": traced_s - untraced_s,
    }
    r.write(os.path.join(WORK_ROOT, f"spans-seed{seed}.json"))
    stage("metrics")
    print(f"stages (s since start): {', '.join(stages)}", file=sys.stderr)
    print(f"traced pass {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
          f"{len(r.spans)} spans; step_backward_ms is derived "
          f"(gradient_ms - step_forward_ms)", file=sys.stderr)
    return {k: float(v) for k, v in metrics.items()}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["estimate", "ablate", "forecast"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfvol", "cli.py")):
        print(f"error: no mfvol sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    os.environ.update(THREADS)
    sys.path.insert(0, SRC)
    import mfvol

    if os.path.dirname(os.path.abspath(mfvol.__file__)) != \
            os.path.join(SRC, "mfvol"):
        print(f"error: mfvol imported from {mfvol.__file__}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    tally = Tally()
    try:
        if args.trace:
            values = trace(args.seed, work, tally)
            wanted = declared["per_layer"]
        else:
            values = measure(args.workload, args.seed, args.seconds, work, tally)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        print(f"error: measured {sorted(values)}, declared {sorted(names)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
