"""pcgn benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), repeats the workload's unit of work while whole units fit
in ``--seconds`` and prints the end-to-end metrics.  Their times are CPU
times scaled to a nominal machine speed (see ``calibrate.py``).  ``--trace 1`` sets up once and runs one
unit untraced, then runs set-up, one unit and the untimed follow-up again
with every pcgn layer wrapped in spans, and prints the per-layer metrics.  Both
print a human-readable report, then the machine stamp, then as the last
line a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Run records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Primitive names the model's loss records on the tape.
TAPE_OPS = (
    "matvec", "add", "vslice", "sigmoid", "tanh", "hadamard", "concat",
    "embedding_lookup", "stack_rows", "transpose", "softmax", "log_softmax",
    "pick", "scale",
)


def _import_pcgn():
    """Import pcgn from this checkout's ``src``, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pcgn
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import pcgn from {ROOT / 'src'}: {err}") from None
    if Path(pcgn.__file__).resolve().parent != ROOT / "src" / "pcgn":
        raise SystemExit(f"perfbench: pcgn was imported from {pcgn.__file__}, not from this checkout")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(W, workload: str, size: dict, seed: int, seconds: float, ckpt: Path, ledger):
    import calibrate

    marker = W.Marker()
    for _ in range(10):   # warm the kernel up before it gauges anything
        calibrate.kernel()
    setup_s = []
    for _ in range(W.SETUP_REPEATS):
        prep, spent = calibrate.timed(W.setup, workload, size, seed, ckpt, ledger, marker)
        setup_s.append(spent)
    e2e, first, samples = W.measure(workload, prep, seconds, ledger, marker)
    W.post(workload, prep, first, ckpt, ledger, marker)
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = peak_rss_mb()
    return e2e, {"setup_s": setup_s, **samples, "speed_factor": calibrate.factors}


def run_traced(W, workload: str, size: dict, seed: int, ckpt: Path, ledger, spans_path: Path):
    import spans as spans_mod

    marker = W.Marker()
    prep = W.setup(workload, size, seed, ckpt, ledger, marker)
    counts, per_token = W.op_counts(workload, prep)
    reference = W.run_unit(workload, prep, ledger, marker)

    tracer = spans_mod.Tracer()
    results = {}

    def body():
        prep = tracer.span("setup", W.setup, workload, size, seed, ckpt, ledger, tracer)
        results["unit"] = unit = tracer.span("measure", W.run_unit, workload, prep, ledger, tracer)
        results["probe"] = tracer.span("post", W.post, workload, prep, unit, ckpt, ledger, tracer)
        results["ckpt_bytes"] = prep.ckpt_bytes

    tracer.install()
    try:
        tracer.span("workload", body)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    summary = tracer.summary()
    self_s = tracer.self_times()
    root = next(i for i, s in enumerate(tracer.spans) if s[0] == "workload")
    root_s = tracer.spans[root][2] - tracer.spans[root][1]
    covered = math.fsum(self_s.values())
    ledger.record(abs(covered - root_s) <= 1e-9 + 1e-6 * root_s, f"self times sum to {covered}, root span is {root_s}")

    evals = [r for r in (results["unit"], results["probe"]) if isinstance(r, W.EvalResult)]
    tops = [h[0] for ev in evals for h in ev.hyps]
    searches = summary["decoding.beam_search"]["calls"]

    def call_s(unit):
        return unit.decode_s if isinstance(unit, W.EvalResult) else unit.seconds

    def self_of(name):
        return summary.get(name, {"self_s": 0.0})["self_s"]

    metrics = {
        "autodiff.tape_entries_per_token": per_token,
        **{f"autodiff.op_count.{op}": counts.get(op, 0) for op in TAPE_OPS},
        "autodiff.backprop.self_s": self_of("autodiff.backprop"),
        "model.encode_blog.self_s": self_of("model.encode_blog"),
        "model.encode_description.self_s": self_of("model.encode_description"),
        "model.lstm_step.self_s": self_of("model.lstm_step"),
        "model.attention_context.self_s": self_of("model.attention_context"),
        "model.gated_memory_step.self_s": self_of("model.gated_memory_step"),
        "model.decoder_step.self_s": self_of("model.decoder_step"),
        "model.decoder_step.calls": summary["model.decoder_step"]["calls"],
        "training.example_forward.self_s": self_of("training.example_forward"),
        "training.sgd_update.self_s": self_of("training.sgd_update"),
        "training.sequence_loss.self_s": self_of("training.sequence_loss"),
        "training.train_epoch.self_s": self_of("training.train_epoch"),
        "training.dataset_perplexity.self_s": self_of("training.dataset_perplexity"),
        "decoding.beam_search.self_s": self_of("decoding.beam_search"),
        "decoding.steps_per_example": tracer.children_calls("decoding.beam_search", "model.decoder_step") / searches,
        "decoding.maxlen_share": sum(not h.finished for h in tops) / len(tops),
        "checkpoint.save_s": self_of("checkpoint.save"),
        "checkpoint.load_s": self_of("checkpoint.load"),
        "checkpoint.bytes": results["ckpt_bytes"],
        "data.build_vocab_s": self_of("data.build_vocab"),
        "data.encode_records_s": self_of("data.encode_records"),
        "synthetic.records_s": self_of("synthetic.records"),
        "metrics.bleu2_s": self_of("metrics.bleu2"),
        "metrics.meteor_lite_s": self_of("metrics.meteor_lite"),
        "metrics.bleu2": evals[0].bleu2,
        "metrics.meteor_lite": evals[0].meteor,
        "trace.overhead_share": statistics.median(call_s(results["unit"])) / statistics.median(call_s(reference)) - 1.0,
    }
    return metrics, {"root_s": root_s, "self_s_sum": covered, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # BLAS reads its thread count when numpy loads, so pin it before any import.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    _import_pcgn()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(W.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    size = W.SIZES[args.workload][args.size]

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    ckpt = OUT / f"{tag}.ckpt.json"
    ledger = W.Ledger()
    try:
        if args.trace:
            values, detail = run_traced(W, args.workload, size, args.seed, ckpt, ledger, OUT / f"{tag}.spans.jsonl")
            wanted = spec["per_layer"]
        else:
            values, detail = run_untraced(W, args.workload, size, args.seed, args.seconds, ckpt, ledger)
            wanted = spec["end_to_end"]
    finally:
        ckpt.unlink(missing_ok=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(args.seed)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "size": args.size, "env": env, "detail": detail,
         "failures": ledger.notes, "result": result}, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if "call_s" in detail:
        print(f"{args.workload} call samples = {len(detail['call_s'])}, over {detail['units']} units")
        q = statistics.quantiles(detail["speed_factor"], n=4)
        print(f"{args.workload} speed factor (nominal / measured kernel time) = median {q[1]:.4g}, "
              f"quartiles {q[0]:.4g}..{q[2]:.4g}, over {len(detail['speed_factor'])} timed calls")
    print(f"{args.workload} failed_share = {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for note in ledger.notes:
        print(f"{args.workload} FAILED: {note}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
