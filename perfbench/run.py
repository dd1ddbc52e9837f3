"""privebc session benchmark: one command per workload run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiny-2p --seed 1 --seconds 45 --trace 0

Workloads: tiny-private, tiny-2p, ba10k-hub-2p, ba10k-sweep (see workloads.py).
--trace 0 measures the end-to-end metrics; --trace 1 makes a separate
run that reports the per-layer metrics. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; a
readable summary goes to standard error and the full record, with every
session, the environment and the per-layer samples, to perfbench/out/.
The command exits nonzero if any session or correctness check failed.
It imports privebc only from the checkout's own src/ directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from summary import median, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_TIMEOUT_S = 90.0

END_TO_END_UNITS = {
    "session_ms_p50": "ms",
    "session_ms_tail": "ms",
    "sessions_per_s": "1/s",
    "wire_kb_per_session": "KiB",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _import_program():
    package = SRC / "privebc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no privebc package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import privebc

    if Path(privebc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: privebc was imported from {privebc.__file__}, not {package}")
    return privebc


def environment(privebc) -> dict:
    import mpmath
    import numpy

    ctx = getattr(privebc, "DEFAULT_CONTEXT", None)
    kernels = getattr(privebc, "_kernels", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "xp_backend": getattr(ctx, "backend_name", None),
        "kernels_backend": kernels.active_backend() if hasattr(kernels, "active_backend") else None,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
    }


def _setup_child(conn, wl) -> None:
    try:
        if not conn.recv():
            return
        t0 = perf_counter()
        wl.setup()
        wl.warmup()
        conn.send(perf_counter() - t0)
    finally:
        wl.close()
        conn.close()


class ColdSetup:
    """Set-up plus warm-up, timed in a child forked once `wl` holds its
    inputs but before this process built anything from them, so that
    every lazily filled cache starts empty. The child waits until `run`
    starts it, so that set-ups can be spread over a run like sessions."""

    def __init__(self, wl):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=_setup_child, args=(child_conn, wl), name="cold-setup")
        self._proc.start()
        child_conn.close()

    def run(self) -> float:
        try:
            self._conn.send(True)
            if not self._conn.poll(SETUP_TIMEOUT_S):
                raise TimeoutError(f"cold set-up took over {SETUP_TIMEOUT_S} s")
            return self._conn.recv()
        finally:
            self.close()

    def close(self) -> None:
        """Stop the child if it never ran, and reap it."""
        try:
            if self._proc.is_alive():
                self._conn.send(False)
        except OSError:
            pass
        self._proc.join(SETUP_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


# Every session runs once per round, in many rounds spread over the run,
# and counts with its fastest run: on a shared host the speed of identical
# work drifts by up to 1.5x, in phases from under a second to over a
# minute, and the fastest of many spread-out runs filters most of it.
def measure(wl, seconds: float, traced: bool = False, before_round=lambda r: None):
    """Closed loop, one client, in rounds.

    Round 0 runs one pass of the workload; each later round replays it
    (same sessions, same seeds, same order) until the rounds have taken
    `seconds`, and at least two rounds have run. In a traced run the odd
    rounds are traced. `before_round(r)` runs, untimed, before round r.
    Returns (ops, executions per op, errors, rounds run).
    """
    ops, execs, errors = [], [], []
    busy = 0.0

    def run_round(r: int) -> None:
        nonlocal busy
        before_round(r)
        t0 = perf_counter()
        if r == 0:
            ops.extend(wl.one_pass())
            execs.extend([] for _ in ops)
        for i, op in enumerate(ops):
            try:
                execs[i].append(wl.run_op(op, traced and r % 2 == 1))
            except Exception as exc:  # each failure counts against error_rate
                errors.append(f"op {i} round {r} ({op.label}, eps={op.eps}): "
                              f"{type(exc).__name__}: {exc}")
        busy += perf_counter() - t0

    rounds = 0
    while rounds < 2 or busy < seconds:
        run_round(rounds)
        rounds += 1
    return ops, execs, errors, rounds


@dataclass
class Session:
    """One scheduled session's best-of-rounds figures."""

    eps: float
    best_ms: float  # fastest untraced execution (traced, if all were traced)
    wire_bytes: float  # mean over executions
    traced_ms: float | None = None  # fastest traced execution
    layers: dict[str, float] = field(default_factory=dict)  # fastest per layer, traced rounds


def best_of(execs_per_op: list[list], rounds: int) -> list[Session]:
    """Fold each op's executions into one Session; ops with a failed
    execution are left out (their failures are counted already)."""
    out = []
    for recs in execs_per_op:
        if len(recs) != rounds:
            continue
        plain = [r.session_ms for r in recs if not r.traced]
        traced = [r for r in recs if r.traced]
        s = Session(eps=recs[0].eps, best_ms=min(plain or [r.session_ms for r in recs]),
                    wire_bytes=sum(r.wire_bytes for r in recs) / len(recs))
        if traced:
            s.traced_ms = min(r.session_ms for r in traced)
            for r in traced:
                for name, value in r.layers.items():
                    s.layers[name] = min(value, s.layers.get(name, value))
        out.append(s)
    return out


def end_to_end(sessions: list[Session], setup_s: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    ms = [s.best_ms for s in sessions]
    values = {"setup_s": median(setup_s), "peak_rss_mb": peak_rss_mb}
    info = {}
    if ms:
        tail_ms, pct, n = tail(ms)
        values.update(session_ms_p50=median(ms), session_ms_tail=tail_ms,
                      sessions_per_s=len(ms) / (sum(ms) / 1e3),
                      wire_kb_per_session=sum(s.wire_bytes for s in sessions) / len(sessions) / 1024.0)
        info = {"session_ms_tail_percentile": pct, "sessions": n}
    return {k: values.get(k) for k in END_TO_END_UNITS}, info


def per_layer(sessions: list[Session], setup_layers: dict) -> dict:
    from workloads import PER_LAYER_UNITS

    traced = [s for s in sessions if s.traced_ms is not None]
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    for name, value in setup_layers.items():
        samples[name].append(value)
    for s in traced:
        for name, value in s.layers.items():
            if name in samples:
                samples[name].append(value)
        samples["protocol.session_ms"].append(s.traced_ms)
        if "protocol.stage_sum_ms" in s.layers:
            samples["protocol.other_ms"].append(s.traced_ms - s.layers["protocol.stage_sum_ms"])
    values = {name: median(samples[name]) for name in PER_LAYER_UNITS}
    if traced:
        values["trace.overhead_ms"] = (median([s.traced_ms for s in traced])
                                       - median([s.best_ms for s in traced]))
    return values


def stage_table(sessions: list[Session]) -> dict:
    """Median over traced sessions of each timed layer, per eps."""
    by_eps: dict[float, dict[str, list[float]]] = {}
    for s in sessions:
        if s.traced_ms is not None:
            bucket = by_eps.setdefault(s.eps, {"protocol.session_ms": []})
            bucket["protocol.session_ms"].append(s.traced_ms)
            for name, value in s.layers.items():
                if name.endswith("_ms"):
                    bucket.setdefault(name, []).append(value)
    return {str(eps): {name: median(v) for name, v in sorted(layers.items())}
            for eps, layers in sorted(by_eps.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="privebc session benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    privebc = _import_program()
    import workloads
    from workloads import PER_LAYER_UNITS

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment(privebc)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}",
          file=sys.stderr)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.make_inputs()
    # setup_s is only reported untraced: one cold set-up before each of
    # the first rounds, so that set-ups sample the host's phases too.
    cold = [] if args.trace else [ColdSetup(wl) for _ in range(wl.cold_setups)]
    setup_s = []
    try:
        t0 = perf_counter()
        setup_layers = wl.setup()
        wl.warmup()
        setup_s.append(perf_counter() - t0)
        ops, execs, errors, rounds = measure(
            wl, args.seconds, bool(args.trace),
            lambda r: setup_s.append(cold[r].run()) if r < len(cold) else None)
        peak_rss = wl.peak_rss_mb()
        gate = wl.gate(ops)
    finally:
        for c in cold:
            c.close()
        wl.close()

    errors += [f"gate {name}: {err}" for name, err in gate if err is not None]
    attempted = len(ops) * rounds + len(gate)
    sessions = best_of(execs, rounds)
    e2e, tail_info = end_to_end(sessions, setup_s, peak_rss)
    if args.trace:
        values, units = per_layer(sessions, setup_layers), PER_LAYER_UNITS
    else:
        values, units = e2e, END_TO_END_UNITS
    correct = not errors and bool(sessions)
    result = {"correct": correct, "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}

    record = {
        "args": vars(args), "environment": env, "setup_s_reps": setup_s,
        "end_to_end": e2e, **tail_info, "error_rate": len(errors) / attempted,
        "errors": errors, "gate_checks": len(gate), "result": result,
        "frames_match": [r.frames_match for recs in execs for r in recs if r.traced],
        "stage_ms_by_eps": stage_table(sessions),
        "sessions": [vars(x) for x in sessions],
        "executions": [[vars(r) for r in recs] for recs in execs],
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float))

    for msg in errors[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(f"perfbench: error_rate {len(errors)}/{attempted}; session_ms_tail is "
          f"p{tail_info.get('session_ms_tail_percentile')} of {tail_info.get('sessions')} sessions; "
          f"record in {out_path.relative_to(ROOT)}", file=sys.stderr)
    if args.trace:
        checked = [m for m in record["frames_match"] if m is not None]
        print(f"perfbench: layer calls reproduced the session's backward frame in "
              f"{sum(checked)} of {len(checked)} traced runs with a reply", file=sys.stderr)
    for k in units:
        print(f"perfbench:   {k} = {values[k]} {units[k]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
