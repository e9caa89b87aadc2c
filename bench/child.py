"""One sample in a fresh process.

    python3 child.py SRC_DIR                                   # import only
    python3 child.py SRC_DIR COMMAND INPUT OUTPUT off|spans|alloc

Times a fixed pure-Python calibration task, which tracks how fast the
machine runs at that moment, then imports `coopstab.cli` from SRC_DIR and
times the import. With a command, it
then times `cli.main([COMMAND, INPUT])` with stdout captured, reads the peak
RSS of this process, and writes the captured output to OUTPUT. The peak is
VmHWM, not `ru_maxrss`: Linux carries the parent's peak into `ru_maxrss`
across fork and exec, so a large parent would mask a small child. `spans` wraps
the layer boundaries (see tracer.py); `alloc` also runs tracemalloc. The last
line on stdout is one JSON object with the measurements.
"""
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak resident set size of this process image since exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def calibrate() -> float:
    """Seconds for a fixed task that does not touch coopstab."""
    start = time.perf_counter()
    table = {i: str(i) for i in range(150_000)}
    sorted(table.values())
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    src = Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    record = {"calibration_s": calibrate()}
    start = time.perf_counter()
    import coopstab.cli as cli
    record["import_s"] = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"coopstab was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1
    if len(argv) > 2:
        command, input_path, output_path, trace = argv[2:6]
        tracer = None
        if trace != "off":
            import tracemalloc
            from tracer import Tracer
            tracer = Tracer(memory=trace == "alloc")
            tracer.install()
            if tracer.memory:
                tracemalloc.start()
        captured = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(captured):
            exit_code = cli.main([command, input_path])
        record["op_s"] = time.perf_counter() - start
        record["rss_mb"] = peak_rss_kb() / 1024
        record["exit_code"] = exit_code
        text = captured.getvalue()
        record["output_bytes"] = len(text.encode())
        Path(output_path).write_text(text)
        if tracer is not None:
            record["trace"] = tracer.summary()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
