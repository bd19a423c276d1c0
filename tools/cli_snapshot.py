"""Record what the pcalc command prints for a fixed set of argv.

Each case runs in-process through ``pcalc.cli.main`` and records stdout,
stderr, the exit code and, for ``--output`` cases, the file written.  The
cases cover every subcommand in json, csv and its default format, every
``--help`` text (at COLUMNS=80), and the usage and numerical error exits,
including which error wins when several inputs are bad at once.

    python3 tools/cli_snapshot.py OUT.json [--against BASE.json]

Run it on two checkouts and compare the files to show that a change to
the command line leaves every output as it was.  With --against, it
prints the argv and the differing fields of every case whose record is
not the one BASE.json holds for the same argv and PCALC_TOL, then their
count, and exits 1 if there are any.  The outputs carry floats computed
by numpy, so the file is a diff tool, not a portable test.
"""

import argparse
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pcalc.cli import main  # noqa: E402

K = ["--family", "khalil", "--alpha", "0.5"]
POWER = ["--family", "power", "--alpha", "2"]
NDERIV_F = ["--family", "nderiv", "--alpha", "0.5", "--F", "exp(t^(-alpha)) + t"]
KHALIL_P = ["--family", "custom", "--p", "t + h*t^(1-alpha)", "--alpha", "0.5"]

# one valid invocation per subcommand, in the order of `pcalc --help`
VALID = {
    "deriv": ["deriv", *K, "--f", "t^2", "--t", "4"],
    "integral": ["integral", *K, "--f", "sin(t)", "--a", "0", "--b", "4"],
    "ftc": ["ftc", *K, "--direction", "backward", "--f", "t^2", "--a", "0", "--b", "2"],
    "ibp": ["ibp", *K, "--f", "t^2", "--g", "sin(t)", "--a", "0.5", "--b", "2"],
    "mvt": ["mvt", *K, "--f", "t", "--g", "sqrt(t)", "--a", "1", "--b", "2"],
    "rolle": ["rolle", *K, "--f", "sin(pi*t)", "--a", "1", "--b", "2"],
    "maxprinciple": ["maxprinciple", *K, "--f", "sin(pi*t)", "--a", "0.2", "--b", "1"],
    "hypothesis": ["hypothesis", *POWER, "--t", "0.5", "--epsilons", "1e-2,1e-4"],
    "riccati": ["riccati", *K, "--q", "t", "--u0", "1", "--T", "0.05", "--n", "16"],
    "weierstrass": ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2",
                    "--x", "1/3", "--m", "3"],
    "polygon": ["polygon", *POWER, "--vertices", "v.csv", "--side", "right"],
    "compare": ["compare", "--family", "gfd", "--alpha", "0.5", "--beta", "1.5",
                "--family2", "khalil", "--alpha2", "0.5", "--f", "corpus:exp",
                "--t", "1.2"],
}

EXTRA = [  # further successful runs: other branches of the handlers
    ["deriv", *K, "--f", "corpus:abs", "--t", "1", "--side", "left"],
    ["ftc", *K, "--f", "corpus:sin", "--a", "0", "--b", "2"],
    ["deriv", *NDERIV_F, "--f", "t^2", "--t", "4"],
    ["integral", *NDERIV_F, "--f", "sin(t)", "--a", "0", "--b", "4"],
    ["ftc", "--family", "custom", "--p", "t+h*t", "--f", "exp(exp(t))", "--a", "1", "--b", "3"],
    ["mvt", *K, "--f", "t^2", "--a", "1", "--b", "2", "--format", "csv"],
    ["hypothesis", *K, "--t", "1"],
    ["riccati", *K, "--q", "0", "--u0", "1", "--T", "0.05", "--start", "0.5",
     "--n", "16", "--format", "json"],
    ["polygon", *POWER, "--vertices", "v.csv", "--grid", "0.5,1.5", "--format", "json"],
    ["compare", *POWER, "--family2", "power", "--alpha2", "2", "--f", "corpus:sin",
     "--t", "0.3"],
    ["deriv", *K, "--f", "t^2", "--t", "4", "--output", "out.txt"],
    ["riccati", *K, "--q", "0", "--u0", "1", "--T", "0.05", "--n", "16",
     "--output", "out.txt"],
    # khalil written as a custom p: alpha is folded into the multiplier's tree
    ["riccati", *KHALIL_P, "--q", "t", "--u0", "1", "--T", "0.05", "--n", "16",
     "--format", "json"],
    ["mvt", *KHALIL_P, "--f", "t^2", "--a", "1", "--b", "2"],
    # offset roots from the shared doubling rows: a p that is not monotone in h,
    # roots on both signs of h, a point near the domain edge, a side with no root
    ["hypothesis", "--family", "custom", "--p", "t + sin(1000*h)*h", "--t", "1"],
    ["hypothesis", "--family", "power", "--alpha", "3", "--t", "0.5"],
    ["hypothesis", "--family", "cosine", "--alpha", "0.5", "--t", "1.5"],
    ["hypothesis", "--family", "katugampola", "--alpha", "0.5", "--t", "1", "--epsilons", "10,1"],
    # trailing space, and a non-ASCII digit (the tokenizer's \d takes any Unicode digit)
    ["deriv", *K, "--f", "t^2   ", "--t", "4"],
    ["deriv", *K, "--f", "\u0663*t", "--t", "4"],
]

ERRORS = [  # exit 1 and exit 2, each with the message that wins
    [], ["nosuch"], ["deriv"], ["deriv", *K, "--f", "t"],
    ["deriv", *K, "--f", "t", "--t", "x"], ["deriv", *K, "--f", "t", "--t", "1", "--bogus"],
    ["deriv", *K, "--f", "t", "--t", "1", "--format", "xml"],
    ["deriv", *K, "--f", "t +", "--t", "1"],
    ["deriv", *K, "--f", "corpus:nosuch", "--t", "1"],
    ["deriv", *K, "--f", "(" * 400 + "t" + ")" * 400, "--t", "1"],
    ["deriv", *K, "--f", "sin(t\u2003", "--t", "1"],  # a byte offset past a 3-byte space
    ["deriv", "--family", "bogus", "--f", "t", "--t", "1"],
    ["deriv", "--family", "custom", "--f", "t", "--t", "1"],
    ["deriv", *K, "--p", "t+h", "--f", "t", "--t", "1"],
    ["deriv", "--family", "khalil", "--f", "t", "--t", "1"],
    ["deriv", "--family", "gfd", "--alpha", "0.5", "--beta=-inf", "--f", "t", "--t", "1"],
    ["deriv", *K, "--f", "t", "--t", "1", "--tol", "0.5"],
    ["deriv", *K, "--f", "t", "--t", "1", "--output", "no/such/dir/x.json"],
    # precedence: tolerance, family 1, family 2, then the handler's parsing
    ["deriv", "--family", "custom", "--f", "t +", "--t", "1", "--tol", "1"],
    ["deriv", "--family", "custom", "--f", "t +", "--t", "1"],
    ["compare", "--family", "custom", "--family2", "khalil", "--f", "t +", "--t", "1"],
    ["compare", *K, "--family2", "custom", "--f", "t +", "--t", "1"],
    ["compare", *K, "--family2", "khalil", "--f", "t +", "--t", "1"],
    ["ibp", *K, "--f", "t +", "--g", "(", "--a", "1", "--b", "2"],
    ["ibp", *K, "--f", "t", "--g", "(", "--a", "1", "--b", "2"],
    ["mvt", *K, "--f", "t +", "--g", "(", "--a", "1", "--b", "2"],
    ["mvt", *K, "--f", "t", "--g", "(", "--a", "1", "--b", "2"],
    ["polygon", "--family", "custom", "--vertices", "missing.csv", "--grid", "a"],
    ["polygon", *POWER, "--vertices", "missing.csv", "--grid", "a"],
    ["polygon", *POWER, "--vertices", "bad.csv"],
    ["polygon", *POWER, "--vertices", "v.csv", "--grid", "a"],
    ["polygon", *K, "--vertices", "v.csv", "--grid", "1.0"],
    ["hypothesis", *K, "--t", "1", "--epsilons", "a,b"],
    ["hypothesis", *K, "--t", "1", "--epsilons", "0.01,0.1"],
    ["hypothesis", *K, "--t", "1", "--epsilons", "nan"],
    ["hypothesis", *K, "--t", "1", "--epsilons", "inf"],
    ["hypothesis", *K, "--t", "1", "--epsilons", "1e-2,nan"],
    ["hypothesis", "--family", "custom", "--p", "t + h*t^(1-alpha)", "--alpha", "nan", "--t", "2"],
    ["deriv", "--family", "custom", "--p", "t + h*t^(1-alpha)", "--alpha", "nan", "--f", "t^2",
     "--t", "2"],
    ["riccati", *K, "--q", "(", "--u0", "nan", "--T", "0.05"],
    ["riccati", *K, "--q", "0", "--u0", "nan", "--T", "0.05"],
    ["riccati", *K, "--q", "0", "--u0", "1", "--T", "0.05", "--start", "nan"],
    ["riccati", *K, "--q", "0", "--u0", "1", "--T", "0.05", "--n", "2"],
    ["riccati", *K, "--q", "0", "--u0", "1", "--T", "10"],
    ["riccati", *K, "--q", "0", "--u0", "1", "--T", "10", "--format", "json"],
    ["riccati", *K, "--q", "0", "--u0", "1e300", "--T", "0.1", "--override"],
    ["weierstrass", "--a", "9", "--b", "0.9", "--alpha", "2", "--x", "0"],
    ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "1/0"],
    ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "0", "--tol", "1"],
    ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "1/3", "--m", "300"],
    ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "1e5000"],
    ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "1e10000000"],
    ["weierstrass", "--a", "41", "--b", "0.9999", "--alpha", "2", "--x", "1/3", "--m", "1"],
    ["weierstrass", "--a", str(10 ** 400 + 1), "--b", "0.9", "--alpha", "2", "--x", "1/3"],
    ["weierstrass", "--a", str(10 ** 63 + 1), "--b", "0.1", "--alpha", "1.01", "--x", "1/3",
     "--m", "5"],
    ["integral", *K, "--f", "t", "--a", "-1", "--b", "1"],
    ["integral", *K, "--f", "ln(t-2)", "--a", "0.5", "--b", "1"],
    ["integral", *K, "--f", "ln(t-2)", "--a", "0.5", "--b", "1", "--format", "csv"],
    ["integral", *K, "--f", "1/(t-0.5)", "--a", "0", "--b", "1"],
    ["ftc", "--family", "nderiv", "--alpha", "0.5", "--f", "sin(t)", "--a", "0", "--b", "1e300"],
    # one case per domain rule of the expression operator table
    ["deriv", *K, "--f", "1/(t-1)", "--t", "1"],
    ["integral", *K, "--f", "(t-2)^0.5", "--a", "0.5", "--b", "1"],
    ["deriv", *K, "--f", "exp(t)^1000", "--t", "1"],
    ["integral", *K, "--f", "exp(t)^1000", "--a", "0.5", "--b", "1"],
    ["deriv", *K, "--f", "sqrt(t-2)", "--t", "1"],
    ["integral", *K, "--f", "sqrt(t-2)", "--a", "0.5", "--b", "1"],
    ["deriv", *K, "--f", "exp(1000*t)", "--t", "1"],
    ["integral", *K, "--f", "exp(1000*t)", "--a", "0.5", "--b", "1"],
    ["maxprinciple", *K, "--f", "sin(t)", "--a", "1", "--b", "inf"],
    ["rolle", *K, "--f", "t", "--a", "1", "--b", "2"],
    ["mvt", *K, "--f", "t", "--g", "1", "--a", "1", "--b", "2"],
]

ENV_CASES = [  # (PCALC_TOL, argv)
    ("1e-6", ["deriv", *K, "--f", "t^2", "--t", "4"]),
    ("plenty", ["deriv", *K, "--f", "t^2", "--t", "4"]),
    ("plenty", ["deriv", *K, "--f", "t^2", "--t", "4", "--tol", "1e-7"]),
    ("1", ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "0"]),
]

# one argv per place where a scalar form resolves the points an array form
# marks: the first grid point past the cosine domain, a multiplier that
# fails on part of the grid, the Riccati multiplier check, and gamma,
# which every array kernel leaves to the scalar closure
RESOLVED = [
    ["mvt", "--family", "cosine", "--alpha", "0.5", "--f", "t^2", "--a", "1", "--b", "2"],
    ["mvt", "--family", "custom", "--p", "t+h*sqrt(t-1.5)", "--f", "t^2", "--a", "1",
     "--b", "2"],
    ["riccati", "--family", "custom", "--p", "t-h*sqrt(t)", "--q", "0", "--u0", "0.1",
     "--T", "0.05"],
    ["maxprinciple", *K, "--f", "gamma(t)", "--a", "0.5", "--b", "3"],
    ["rolle", *K, "--f", "gamma(t)*(t-1)*(t-2)", "--a", "1", "--b", "2"],
    # the multiplier fails on part of a scan grid: nderiv's exp overflows near
    # 0, and the cosine grid runs past pi/2
    ["rolle", "--family", "nderiv", "--alpha", "0.5", "--f", "t*(0.001-t)", "--a", "1e-9",
     "--b", "0.001"],
    ["mvt", "--family", "nderiv", "--alpha", "0.5", "--f", "t^2", "--g", "t", "--a", "1e-9",
     "--b", "0.001"],
    ["rolle", "--family", "cosine", "--alpha", "0.5", "--f", "(t-1)*(t-2)", "--a", "1",
     "--b", "2"],
    ["mvt", "--family", "cosine", "--alpha", "0.5", "--f", "t^2", "--g", "t^3", "--a", "1",
     "--b", "2"],
]

GFD = ["--family", "gfd", "--alpha", "0.6", "--beta", "1.4"]
NDERIV = ["--family", "nderiv", "--alpha", "0.5"]
# every closed-form kind through its array multiplier: feasible Riccati
# solves, the nderiv multiplier's overflow exits, and the scans
ROWS = [
    ["riccati", "--family", "katugampola", "--alpha", "0.7", "--q", "t", "--u0", "0.5",
     "--T", "0.2", "--n", "32"],
    ["riccati", *GFD, "--q", "t", "--u0", "0.5", "--T", "0.2", "--n", "32"],
    ["riccati", "--family", "cosine", "--alpha", "0.5", "--q", "t", "--u0", "0.5",
     "--T", "0.2", "--n", "32"],
    ["riccati", *NDERIV, "--q", "0", "--u0", "0.1", "--T", "0.3"],
    ["integral", "--family", "nderiv", "--alpha", "0.9", "--f", "1", "--a", "0", "--b", "0.05"],
    ["ibp", "--family", "nderiv", "--alpha", "0.9", "--f", "t", "--g", "t^2", "--a", "0",
     "--b", "0.05"],
    ["mvt", *NDERIV, "--f", "t^2", "--a", "1", "--b", "2"],
    ["rolle", *NDERIV, "--f", "sin(pi*t)", "--a", "1", "--b", "2"],
    ["mvt", *GFD, "--f", "t^2", "--a", "1", "--b", "2"],
    ["rolle", *GFD, "--f", "sin(pi*t)", "--a", "1", "--b", "2"],
    ["mvt", *POWER, "--f", "t^2", "--a", "1", "--b", "2"],
    ["rolle", *POWER, "--f", "sin(pi*t)", "--a", "1", "--b", "2"],
]

# the contraction certificate where the best radius is sqrt(q_inf), a
# subnormal interval, ladders whose p(t, h) rounds onto t, an nderiv F
# refused for overflowing and one accepted though it fails at t = 0.1,
# tolerances scaled by large boundary values, a horizon past the
# cosine domain, running integrals under a fast multiplier, past the
# edge of f's domain and under a vanishing multiplier, a gfd
# coefficient whose gamma underflows, a Riccati multiplier negative only
# below 1e-9, and an nderiv solve whose multiplier overflows near 0
EDGES = [
    ["riccati", *K, "--q", "4", "--u0", "0.1", "--T", "0.01"],
    ["integral", *K, "--f", "1", "--a", "0", "--b", "1e-321"],
    ["deriv", "--family", "custom", "--p", "t + h*1e-12", "--f", "t^2", "--t", "1"],
    ["ftc", "--family", "custom", "--p", "t + h*1e-20", "--f", "1", "--a", "0", "--b", "1"],
    ["deriv", *NDERIV, "--F", "1e308*10", "--f", "t", "--t", "1"],
    ["deriv", *NDERIV, "--F", "ln(t-1)", "--f", "t", "--t", "3"],
    ["ftc", *K, "--direction", "backward", "--f", "exp(t)", "--a", "0", "--b", "30"],
    ["ibp", *K, "--f", "t^8", "--g", "t^8", "--a", "0.5", "--b", "30"],
    ["riccati", "--family", "cosine", "--alpha", "0.5", "--q", "0", "--u0", "0.1", "--T", "2"],
    ["ftc", "--family", "nderiv", "--alpha", "0.5", "--f", "1", "--a", "0", "--b", "0.01"],
    ["ftc", *K, "--f", "sqrt(t-1)", "--a", "1", "--b", "1.0001"],
    ["ftc", *POWER, "--f", "1", "--a", "0", "--b", "1"],
    ["deriv", "--family", "gfd", "--alpha", "0.3", "--beta", "-178.3", "--f", "t", "--t", "1"],
    ["riccati", "--family", "custom", "--p", "t + h*sqrt(t)*(t - 1e-9)/abs(t - 1e-9)",
     "--q", "0", "--u0", "0.1", "--T", "0.05"],
    ["riccati", *NDERIV, "--q", "0", "--u0", "0.1", "--T", "1"],
]

# ladders that start near the left end of the domain, where h0 = 1e-2 maps
# t far outside the local regime unless it is halved first
LADDER = [
    ["deriv", "--family", "katugampola", "--alpha", "0.95", "--f", "t^3",
     "--t", "0.00011621677007402848"],
    ["ftc", "--family", "nderiv", "--alpha", "0.845", "--f", "1", "--a", "0",
     "--b", "0.000532935529048646"],
    ["ftc", "--family", "katugampola", "--alpha", "0.95", "--f", "t^3", "--a", "1e-6",
     "--b", "1.1621677007402848e-4"],
    ["ftc", *NDERIV, "--f", "sin(t)", "--a", "0", "--b", "1e-3"],
]

# the command lookup: the first token that is not an option names the
# subparser that gets arguments
LOOKUP = [
    ["-h"],
    ["--", "deriv", *K, "--f", "t^2", "--t", "4"],
    ["--tol", "1e-6", "deriv", *K, "--f", "t^2", "--t", "4"],
]


def cases():
    for argv in VALID.values():
        yield None, argv
        for fmt in ("json", "csv"):
            yield None, [*argv, "--format", fmt]
    yield None, ["--help"]
    for name in VALID:
        yield None, [name, "--help"]
    for argv in EXTRA + ERRORS:
        yield None, argv
    yield from ENV_CASES
    for argv in RESOLVED + ROWS + EDGES + LADDER + LOOKUP:
        yield None, argv


def run(env_tol, argv):
    os.environ.pop("PCALC_TOL", None)
    if env_tol is not None:
        os.environ["PCALC_TOL"] = env_tol
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    record = {"argv": argv, "env": env_tol, "code": code,
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    if os.path.exists("out.txt"):
        record["file"] = Path("out.txt").read_text(encoding="utf-8")
        os.remove("out.txt")
    return record


def snapshot() -> list[dict]:
    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)  # relative file names keep the echoed inputs stable
        try:
            Path("v.csv").write_text("# vertices\n0,0\n1,1\n\n2,0\n")
            Path("bad.csv").write_text("0,0\n1,2,3\n")
            return [run(env, argv) for env, argv in cases()]
        finally:
            os.chdir(here)


def changed(records: list[dict], base: list[dict]) -> int:
    """Print each record that differs from base's for the same case; count them."""
    key = lambda r: json.dumps([r["argv"], r["env"]])
    old = {key(r): r for r in base}
    n = 0
    for r in records:
        was = old.get(key(r), {})
        fields = [f for f in sorted(r.keys() | was.keys()) if r.get(f) != was.get(f)]
        if fields:
            n += 1
            print(json.dumps(r["argv"]) + (f" PCALC_TOL={r['env']}" if r["env"] else ""))
            for f in fields:
                print(f"  {f}: {was.get(f)!r} -> {r.get(f)!r}")
    print(f"{n} cases differ")
    return n


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Record pcalc's outputs for a fixed set of argv.")
    ap.add_argument("out", metavar="OUT.json")
    ap.add_argument("--against", metavar="BASE.json", help="report the cases that differ")
    args = ap.parse_args()
    records = snapshot()
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} cases written to {args.out}")
    if args.against:
        base = json.loads(Path(args.against).read_text(encoding="utf-8"))
        sys.exit(1 if changed(records, base) else 0)
