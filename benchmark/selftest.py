"""Quick self-test of the benchmark.

    python3 benchmark/selftest.py

It runs one round of every workload at tiny sizes, untraced and traced,
with every output check; it hands the checks deliberately perturbed
outputs and asserts that they flag them; it checks the benchmark's own
closed forms against staggrid's exact dense oracle; and it checks that
BENCHMARK.json names exactly the metrics the benchmark prints.  It takes
a few seconds and exits non-zero on the first failure.  The file name
keeps it out of the repository's pytest run.
"""

from __future__ import annotations

import run  # noqa: I001 -- first, so that BLAS is pinned before numpy loads

import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import workloads
from checks import CheckError
from spans import PER_LAYER


def expect_flagged(check, *args, what: str) -> None:
    try:
        check(*args)
    except CheckError:
        return
    raise AssertionError(f"the check missed {what}")


def perturb(out) -> None:
    """Change one value of an operation's output in place."""
    if isinstance(out, tuple):                            # (FieldND, summary)
        values = out[0].values
    else:                                                 # Unique or a 1-D field
        values = getattr(out, "edges", out).values
    values.flat[values.size // 2] += 1e-6 * (1.0 + abs(values.flat[values.size // 2]))


def perturb_file(path: Path) -> None:
    lines = path.read_text(encoding="ascii").split("\n")
    lines[7] = repr(float(lines[7]) + 1e-6)
    path.write_text("\n".join(lines), encoding="ascii")


def tiny_pass(workload: str, sg, workdir: Path) -> None:
    specs = workloads.generate(workload, 1, workloads.TINY[workload])
    cli = workloads.CliRunner(run.SRC, sg) if workload == "cli-files" else None
    ops = workloads.build(workload, specs, sg, workdir, cli)
    rec = run.Record()
    rec.run_round(ops)
    assert rec.correct, rec.reasons
    assert rec.attempted == len(ops)
    assert all(rec.times[k] for k in ("odd", "even", "centers")), rec.times
    for k, op in enumerate(ops):
        out = op.run()
        if isinstance(out, sg.Inconsistent):
            continue
        if workload == "cli-files":
            perturb_file(workdir / f"out-{k}.txt")      # the name _cli_ops gives it
        else:
            perturb(out)
        expect_flagged(op.check, out, what=f"a perturbed output of {workload} {op.name}")
    metrics = run.traced(workload, ops, cli, 0.0, run.Record())
    assert set(metrics) == set(PER_LAYER), set(metrics) ^ set(PER_LAYER)
    print(f"{workload}: {len(ops)} operations checked, perturbations flagged, traced")


def closed_forms_against_oracle(sg) -> None:
    """The benchmark's references agree with staggrid.exact on small systems."""
    from staggrid import exact

    rng = np.random.default_rng(7)
    for m in (7, 8, 15, 16):
        planted = rng.standard_normal(m)
        grid = sg.PeriodicStagger1D(m + 2)
        if m % 2:
            rounded = [Fraction(float(c)) for c in checks.centers_of(planted)]
            outcome = exact.solve_dense(exact.build_system(sg.CenterField1D(grid, rounded)))
            checks.check_odd(np.array([float(v) for v in outcome.edges.values]), planted)
            continue
        exact_centers = [(Fraction(a) + Fraction(b)) / 2
                         for a, b in zip(planted, np.roll(planted, -1))]
        family = exact.solve_dense(exact.build_system(sg.CenterField1D(grid, exact_centers)))
        p, n = family.particular.values, family.null_direction
        t = -sum(a * b for a, b in zip(p, n)) / m
        checks.check_min_norm(np.array([float(a + t * b) for a, b in zip(p, n)]), planted)
        pin_index, pin_value = 3, Fraction(1, 4)
        t = (pin_value - p[pin_index - 1]) / n[pin_index - 1]
        checks.check_pinned(np.array([float(a + t * b) for a, b in zip(p, n)]), planted,
                            pin_index, float(pin_value))
    print("closed forms agree with the exact oracle")


def checks_flag_wrong_outputs() -> None:
    rng = np.random.default_rng(3)
    e = rng.standard_normal(16)
    n = checks.checkerboard(16)
    bump = np.zeros(16)
    bump[5] = 1e-9

    checks.check_odd(e[:15].copy(), e[:15])
    expect_flagged(checks.check_odd, e[:15] + bump[:15], e[:15], what="an odd-N error")

    mn = checks.min_norm_of(e)
    checks.check_min_norm(mn, e)
    expect_flagged(checks.check_min_norm, mn + bump, e, what="a min-norm error")
    expect_flagged(checks.check_min_norm, mn + 1e-9 * n, e,
                   what="a family member that is not the min-norm one")

    pinned = checks.pinned_of(e, 4, 0.25)
    checks.check_pinned(pinned, e, 4, 0.25)
    expect_flagged(checks.check_pinned, pinned + 1e-9 * n, e, 4, 0.25,
                   what="a pinned member off its pin")

    checks.check_centers(checks.centers_of(e), e)
    expect_flagged(checks.check_centers, checks.centers_of(e) + bump, e,
                   what="a centers error")

    expect_flagged(checks.explain_inconsistent, checks.centers_of(e) + bump * 1e3, 0.0,
                   what="centers that are inconsistent by construction")
    print("checks flag perturbed outputs")


def benchmark_json_names_the_metrics() -> None:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layers == {k: u for k, (u, _) in PER_LAYER.items()}
    assert {m["name"]: m["better"] for m in spec["per_layer"]} == {
        k: b for k, (_, b) in PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    print("BENCHMARK.json names the printed metrics")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import staggrid as sg

    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        checks_flag_wrong_outputs()
        closed_forms_against_oracle(sg)
        for workload in workloads.WORKLOADS:
            tiny_pass(workload, sg, workdir)
        benchmark_json_names_the_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
