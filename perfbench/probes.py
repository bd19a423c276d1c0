"""Named probes: the ROADMAP baseline-table cases and the CLI cost split.

Each probe times one fixed case (not seeded) a few times and reports the
median, so later changes can quote it next to the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _spawn(argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)


# one in-process call per subcommand, and the API call it makes
def _cli_cases(P):
    k = P.make_family("khalil", 0.5)
    fam = ["--family", "khalil", "--alpha", "0.5"]
    verts = [(-2.0, 1.0), (-1.0, -0.5), (0.5, 2.0), (1.5, 0.0), (3.0, 1.0)]
    vert_file = Path(__file__).resolve().parent / "out" / f"probe-vertices-{os.getpid()}.csv"
    vert_file.write_text("".join(f"{x},{y}\n" for x, y in verts))
    pw = P.make_family("power", 2.0)
    wp = P.WeierstrassParams(41, 0.9, 2.0)

    def deriv():
        P.p_derivative_limit(k, "sin(t)", 2.0)
        P.p_derivative_formula(k, "sin(t)", 2.0)

    cases = [
        (["deriv", *fam, "--f", "sin(t)", "--t", "2"], deriv),
        (["integral", *fam, "--f", "1", "--a", "0", "--b", "4"],
         lambda: P.p_integral(k, "1", 0.0, 4.0)),
        (["ftc", *fam, "--f", "sin(t)", "--a", "0", "--b", "2"],
         lambda: P.ftc_forward(k, "sin(t)", 0.0, 2.0)),
        (["ibp", *fam, "--f", "t^2", "--g", "sin(t)", "--a", "0.5", "--b", "2"],
         lambda: P.integration_by_parts_check(k, "t^2", "sin(t)", 0.5, 2.0)),
        (["mvt", *fam, "--f", "t^2", "--a", "1", "--b", "2"],
         lambda: P.find_mvt_point(k, "t^2", 1.0, 2.0)),
        (["rolle", *fam, "--f", "sin(pi*t)", "--a", "1", "--b", "2"],
         lambda: P.find_rolle_point(k, "sin(pi*t)", 1.0, 2.0)),
        (["maxprinciple", *fam, "--f", "sin(pi*t)", "--a", "0.2", "--b", "1"],
         lambda: P.max_principle_check(k, "sin(pi*t)", 0.2, 1.0)),
        (["hypothesis", "--family", "power", "--alpha", "2", "--t", "0.5"],
         lambda: P.check_offset_solvability(pw, 0.5)),
        (["riccati", *fam, "--q", "0", "--u0", "1", "--T", "0.05", "--n", "16"],
         lambda: P.solve_riccati(P.RiccatiProblem(k, "0", 1.0, 0.05, grid_n=16))),
        (["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "1/3"],
         lambda: P.divergence_report(wp, "1/3", m_max=6)),
        (["polygon", "--family", "power", "--alpha", "2", "--vertices", str(vert_file)],
         lambda: P.polygonal_derivative_scan(verts, pw, [x for x, _ in verts])),
        (["compare", *fam, "--family2", "katugampola", "--alpha2", "0.5",
          "--f", "t^2", "--t", "1.5"],
         lambda: P.compare_definitions(k, P.make_family("katugampola", 0.5), "t^2", 1.5)),
    ]
    return cases, vert_file


def run_probes(P) -> dict[str, tuple[float, str]]:
    """All probes as {metric name: (value, unit)}."""
    import pcalc.cli
    from pcalc.quadrature import gk15

    out: dict[str, tuple[float, str]] = {}
    py = sys.executable

    interp = _median_time(lambda: _spawn([py, "-c", "pass"]), 5)
    imp = _median_time(lambda: _spawn([py, "-c", "import pcalc.cli"]), 5)
    out["cli.interp_start_ms"] = (interp * 1e3, "ms")
    out["cli.import_ms"] = ((imp - interp) * 1e3, "ms")
    out["probe.cold_deriv_ms"] = (1e3 * _median_time(lambda: _spawn(
        [py, "-m", "pcalc.cli", "deriv", "--family", "khalil", "--alpha", "0.5",
         "--f", "corpus:sin", "--t", "2"]), 5), "ms")

    cases, vert_file = _cli_cases(P)
    main_s, compute_s = [], []
    sink = io.StringIO()
    for argv, api in cases:
        def call_main(argv=argv):
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink):
                if pcalc.cli.main(argv) != 0:
                    raise RuntimeError(f"probe {argv[0]} failed")
        main_s.append(_median_time(call_main, 3))
        compute_s.append(_median_time(api, 3))
    vert_file.unlink()
    out["cli.main_ms"] = (1e3 * statistics.fmean(main_s), "ms")
    out["cli.compute_ms"] = (1e3 * statistics.fmean(compute_s), "ms")

    k = P.make_family("khalil", 0.5)
    ric = P.RiccatiProblem(k, "0", 1.0, 0.05, grid_n=512)
    out["probe.riccati_n512_ms"] = (1e3 * _median_time(lambda: P.solve_riccati(ric), 3), "ms")
    out["probe.mvt_abs_ms"] = (1e3 * _median_time(
        lambda: P.find_mvt_point(k, "abs(t-1.5)", 1.0, 2.0), 5), "ms")
    out["probe.mvt_square_ms"] = (1e3 * _median_time(
        lambda: P.find_mvt_point(k, "t^2", 1.0, 2.0), 20), "ms")
    out["probe.p_integral_ms"] = (1e3 * _median_time(
        lambda: P.p_integral(k, "sin(t)", 0.0, 4.0), 20), "ms")
    out["probe.check_l1_ms"] = (1e3 * _median_time(
        lambda: P.check_l1(k, 0.0, 0.05), 20), "ms")

    def panels():
        for _ in range(1000):
            gk15(math.sin, 0.0, 1.0)
    out["probe.gk15_us"] = (1e3 * _median_time(panels, 5), "us")

    e = P.parse("sin(t)*exp(-(t^2))+t^3/(1+t^2)")
    pts = [4.0 * i / 1024 for i in range(1024)]

    def sweep():
        for x in pts:
            P.evaluate(e, {"t": x})
    out["probe.evaluate_us_per_pt"] = (1e6 * _median_time(sweep, 5) / len(pts), "us")
    return out
