"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs small cdu commands, checks that their genuine outputs pass, then
feeds the checks corrupted copies (a flipped delta, a wrong witness
solution, an altered CSV cell) and checks that each is caught.  It also
checks that a run whose command exits non-zero, or writes no CSV file, is
judged incorrect.  Exits 1 if a genuine output fails or a fault passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads
from reffield import parse_poly

ROOT = Path(__file__).resolve().parent.parent


def _cdu(argv: list[str]) -> str:
    from cdu import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"cdu {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def _expect(label: str, errs: list[str], caught: bool, failures: list[str]):
    ok = bool(errs) == caught
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {errs[0] if errs else 'no error'}")
    if not ok:
        failures.append(label)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures: list[str] = []
    rng = random.Random(0)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        csv_path = str(Path(tmp) / "ddt.csv")
        # a coefficient outside F_3: neither reduction check applies, so
        # only the brute-force recomputation can catch a flipped delta
        op = workloads._analyze("3^3", "5*x^4 + x^2 + x", matrix_c=2, matrix_out=csv_path)
        out = _cdu(op["argv"])
        files = {csv_path: Path(csv_path).read_text()}
    _expect("genuine analyze report", checks.check(op, out, files, rng), False, failures)

    doc = json.loads(out)
    entry = doc["report"]["entries"][5]
    entry["delta"] += 1
    entry["label"] = checks._label(entry["delta"])
    summary = doc["report"]["summary"]
    summary["pcn_c"] = [e["c"] for e in doc["report"]["entries"] if e["delta"] == 1]
    summary["apcn_c"] = [e["c"] for e in doc["report"]["entries"] if e["delta"] == 2]
    _expect("flipped delta (label and summary kept consistent)",
            checks.check(op, json.dumps(doc), files, rng), True, failures)

    lines = files[csv_path].splitlines()
    cells = lines[4].split(",")
    cells[7] = str(int(cells[7]) + 1)
    lines[4] = ",".join(cells)
    bad = {csv_path: "\n".join(lines) + "\n"}
    _expect("altered CSV cell", checks.check(op, out, bad, rng), True, failures)

    mop = {"kind": "monomial", "p": 3, "h": 3, "d": 5, "c": 3, "rmax": 2,
           "argv": ["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "3", "--rmax", "2"]}
    mout = _cdu(mop["argv"])
    _expect("genuine monomial sweep", checks.check(mop, mout, {}, rng), False, failures)
    doc = json.loads(mout)
    ext = next(v for v in doc["report"]["per_extension"] if v["violation_witness"])
    wit = ext["violation_witness"]
    wrong = next(x for x in range(ext["order"]) if x not in wit["solutions"])
    wit["solutions"][0] = wrong
    _expect("wrong witness solution", checks.check(mop, json.dumps(doc), {}, rng), True, failures)

    cop = workloads._pcn1(random.Random(1), 3, 2)
    cout = _cdu(cop["argv"])
    _expect("genuine construct output", checks.check(cop, cout, {}, rng), False, failures)
    doc = json.loads(cout)
    terms = parse_poly(doc["function"])
    top = max(terms)
    terms[top] = 2 if terms[top] == 1 else 1
    doc["function"] = workloads._poly([(c, e) for e, c in terms.items()])
    _expect("construct output with another function",
            checks.check(cop, json.dumps(doc), {}, rng), True, failures)

    # whole rounds as run.judge sees them: a command that exits non-zero
    # (1 internal error, 2 configuration error) or writes no CSV file
    good = {"outputs": [{"rc": 0, "stdout": out}, {"rc": 0, "stdout": cout}]}
    ops = [op, cop]
    for label, res, got in [
            ("genuine run", good, files),
            ("command exiting 1", {"outputs": [good["outputs"][0], {"rc": 1, "stdout": ""}]}, files),
            ("command exiting 2", {"outputs": [{"rc": 2, "stdout": ""}, good["outputs"][1]]}, files),
            ("missing CSV file", good, {})]:
        correct, failed, errs = run.judge(ops, [(res, got), (res, got)], rng)
        caught = label != "genuine run"
        ok = (not correct) == caught and (failed > 0) == caught
        print(f"{'ok  ' if ok else 'FAIL'} {label}: correct={correct}, failed={failed}"
              + (f", {errs[0]}" if errs else ""))
        if not ok:
            failures.append(label)

    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
