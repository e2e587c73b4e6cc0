"""Stage-timed benchmark of the spkdbn pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/`.
The seed fixes the synthetic inputs (workloads.py).  This process pins
BLAS to one thread, imports spkdbn once and then runs whole rounds of the
pipeline, as many as end within S seconds.  Each round runs in a process
forked from this one, on a fresh output directory, and calls
`spkdbn.cli.main` once per stage, as `spkdbn <stage> --config ...` would,
timing each call.  Every round's outputs are checked (checks.py).

With --trace 0 it prints the end-to-end metrics, each a median over the
rounds; the set-up time of a round includes one import of the package,
timed in a fresh interpreter.  With --trace 1, odd rounds run with every
public spkdbn function wrapped in a span (spans.py) and it prints the
per-layer metrics, each a median over those rounds, plus the tracing
overhead.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

PHASES = {
    "setup": ("train-udbn", "select-impostors", "cluster"),
    "enroll": ("train-speakers",),
    "score": ("score", "score-baseline", "fuse", "evaluate"),
}
STAGES = tuple(s for stages in PHASES.values() for s in stages)
STAGE_FUNCTIONS = {
    "train-udbn": "stage_train_udbn",
    "select-impostors": "stage_select_impostors",
    "cluster": "stage_cluster",
    "train-speakers": "stage_train_speakers",
    "score": "stage_score_dnn",
    "score-baseline": "stage_score_baseline",
    "fuse": "stage_fuse",
    "evaluate": "stage_evaluate",
}
USER_FACING = [f"{kind}_{s}.txt" for kind in ("scores", "report")
               for s in ("dnn", "baseline", "fused")]

# Per-layer metric -> key of spans.summarize().  cd1_step is split by the
# span that called it: train_rbm during pretraining, adapt_udbn per speaker.
LAYER_METRICS = {
    "rbm.cd1_step.adapt_s": "rbm.cd1_step<udbn.adapt_udbn_s",
    "rbm.cd1_step.pretrain_s": "rbm.cd1_step<rbm.train_rbm_s",
    **{name: name for name in (
        "rbm.cd1_step.calls",
        "udbn.train_udbn_s", "udbn.adapt_udbn_s", "udbn.save_dbn_s", "udbn.load_dbn_s",
        "udbn.load_dbn.calls",
        "dnn.backprop_minibatch_s", "dnn.backprop_minibatch.calls", "dnn.save_dnn_s",
        "dnn.load_dnn_s", "dnn.score_llr_batch_s",
        "balance.impostor_frequencies_s", "balance.impostor_frequencies.calls",
        "balance.kmeans_cosine_s", "balance.build_minibatch_plan_s",
        "evaluation.score_baseline_s", "evaluation.score_baseline.calls", "evaluation.fuse_s",
        "evaluation.evaluate_trials_s", "evaluation.save_scores_s", "evaluation.load_scores_s",
        "embeddings.load_embeddings_s", "embeddings.load_embeddings.calls",
        "embeddings.fit_whitener_s",
    )},
    **{f"cli.{stage.replace('-', '_')}{part}": f"cli.{fn}{part}"
       for stage, fn in STAGE_FUNCTIONS.items() for part in ("_s", ".self_s")},
}


def pin_blas() -> None:
    """One BLAS thread per process, so that the --jobs process pool is the
    only parallelism and two workers do not contend with BLAS threads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import spkdbn.cli; print(time.perf_counter() - start)"
)


def import_program():
    """Import spkdbn.cli from the checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "spkdbn", "cli.py")):
        sys.exit(f"bench: no spkdbn package under {SRC}")
    sys.path.insert(0, SRC)
    import spkdbn.cli
    if not os.path.abspath(spkdbn.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported spkdbn from {spkdbn.cli.__file__}, not {SRC}")
    return spkdbn.cli


def time_import() -> float:
    """Seconds a fresh interpreter takes to import spkdbn.cli, timed inside
    it, so that interpreter start-up is left out."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                           capture_output=True, text=True, check=True)
    return float(probe.stdout)


def run_stages(cli, cfg_path: str, out: str, jobs: int) -> tuple[dict, int]:
    """Call every stage once; returns ({phase: seconds}, stage calls that
    succeeded).  A failed stage ends the round."""
    times, ok = {}, 0
    for phase, stages in PHASES.items():
        start = time.perf_counter()
        for stage in stages:
            if cli.main([stage, "--config", cfg_path, "--override", f"out={out}",
                         "--jobs", str(jobs)]) != 0:
                return times, ok
            ok += 1
        times[phase] = time.perf_counter() - start
    return times, ok


def round_process(conn, cli, cfg_path: str, out: str, jobs: int, inputs: dict, tracer) -> None:
    """Body of one round's process: run the stages, then check the outputs
    and send the round's record back over conn."""
    import checks

    if tracer:
        tracer.install()
    times, ok = run_stages(cli, cfg_path, out, jobs)
    if tracer:
        tracer.flush()
    # Each pool worker is charged the peak of the largest one: they do
    # alike work, and the kernel keeps only the largest child's peak.
    workers = jobs if jobs > 1 else 0
    record = {"times": times, "ok": ok,
              "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    if ok == len(STAGES):
        record["artifact_bytes"] = tree_bytes(out)
        record["problems"], record["reports"] = checks.check_outputs(inputs, out)
        record["digest"] = digest(out)
    conn.send(record)
    conn.close()


def run_round(cli, cfg_path: str, out: str, jobs: int, inputs: dict, tracer) -> dict:
    """Run one round in a process forked from this one, so that every
    round starts from the same state: the package imported, nothing run."""
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=round_process,
                        args=(writer, cli, cfg_path, out, jobs, inputs, tracer))
    child.start()
    writer.close()
    try:
        record = reader.recv()
    except EOFError:
        record = None
    child.join()
    if record is None or child.exitcode != 0:
        raise RuntimeError(f"round process exited with code {child.exitcode}")
    return record


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


def digest(out: str) -> str:
    h = hashlib.sha256()
    for name in USER_FACING:
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def expected_calls(cli, cfg_path: str, workload, n_trials: int) -> dict:
    """Span counts per traced round that the resolved config fixes."""
    cfg = cli.resolve_config(cli.parse_config_file(cfg_path))
    adapted = min(cfg.adapt_layers, cfg.depth) if cfg.init_mode == "dbn" else 0
    return {
        "dnn.backprop_minibatch.calls": workload.speakers * cfg.ft_epochs * cfg.num_minibatches,
        "rbm.cd1_step<udbn.adapt_udbn.calls":
            workload.speakers * sum(cfg.adapt_epochs[:adapted]) * cfg.num_minibatches,
        "evaluation.score_baseline.calls": n_trials,
    }


def run(args, cli, run_dir: str) -> dict:
    # These import numpy, so they load only after the BLAS pin.
    import checks
    import spans
    from workloads import WORKLOADS, generate_inputs

    workload = WORKLOADS[args.workload]
    pairs = generate_inputs(workload, args.seed, os.path.join(run_dir, "inputs"))
    inputs = {k: pairs[k] for k in ("background", "enroll", "test", "trials")}
    cfg_path = os.path.join(run_dir, "experiment.cfg")
    with open(cfg_path, "w") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in pairs.items())
    n_trials = len(checks.read_trials(inputs["trials"]))
    tracer = spans.Tracer(os.path.join(run_dir, "spans")) if args.trace else None
    expected = expected_calls(cli, cfg_path, workload, n_trials) if tracer else {}
    rounds, problems, attempted, failed = [], [], 0, 0
    first_digest = None
    start = time.perf_counter()
    # Whole rounds, each started only if it should end within --seconds.
    # A traced run alternates untraced and traced rounds, at least one each.
    while (not rounds or (tracer and len(rounds) < 2)
           or time.perf_counter() - start + median(r["wall"] for r in rounds) <= args.seconds):
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        out = os.path.join(run_dir, f"out{k}")
        round_start = time.perf_counter()
        import_s = 0.0 if tracer else time_import()
        record = run_round(cli, cfg_path, out, workload.jobs, inputs, tracer if traced else None)
        if "setup" in record["times"]:
            record["times"]["setup"] += import_s
        attempted += len(STAGES)
        failed += len(STAGES) - record["ok"]
        problems += [f"round {k}: {p}" for p in record.get("problems", [])]
        if "digest" in record:
            first_digest = first_digest or record["digest"]
            if record["digest"] != first_digest:
                problems.append(f"round {k}: outputs differ from the first round's")
        if traced:
            record["layers"] = spans.summarize(tracer.collect())
            for key, want in expected.items():
                got = record["layers"].get(key, 0)
                if got != want:
                    problems.append(f"round {k}: {key} = {got}, configuration fixes {want}")
        shutil.rmtree(out, ignore_errors=True)
        record["traced"] = traced
        record["wall"] = time.perf_counter() - round_start
        rounds.append(record)
        print(f"round {k}{' traced' if traced else ''}: "
              + " ".join(f"{phase}={t:.3f}" for phase, t in record["times"].items()),
              flush=True)

    done = [r for r in rounds if "reports" in r]
    for system, (eer, min_dcf) in (done[0]["reports"] if done else {}).items():
        print(f"{system}: eer={eer:.6f} min_dcf={min_dcf:.6f}")
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(f"rounds={len(rounds)}")

    if tracer:
        def wall(r):
            return sum(r["times"].values())

        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        metrics = {
            name: {"value": median(r["layers"].get(key, 0.0) for r in traced),
                   "unit": "count" if name.endswith(".calls") else "s"}
            for name, key in LAYER_METRICS.items()
        }
        metrics["trace.overhead_s"] = {
            "value": median(map(wall, traced)) - median(map(wall, untraced)), "unit": "s"}
    else:
        def phase(name):
            return {"value": median(r["times"][name] for r in done), "unit": "s"}

        metrics = {
            "setup_s": phase("setup"),
            "enroll_s": phase("enroll"),
            "score_s": phase("score"),
            "peak_rss_mb": {"value": median(r["peak_kb"] for r in done) * 1024 / 1e6,
                            "unit": "MB"},
            "artifact_mb": {"value": median(r["artifact_bytes"] for r in done) / 1e6,
                            "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas()
    cli = import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        result = run(args, cli, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
