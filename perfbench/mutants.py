"""Deliberately broken copies of pcdl, to show that the benchmark's checks fail.

    python3 perfbench/mutants.py --list
    python3 perfbench/mutants.py COPY MUTANT

COPY is a separate copy of the repository (for example made with
`git archive HEAD | tar -x -C COPY`). The script applies one textual change
to COPY/src/pcdl; then run the benchmark inside COPY and read which check
reports the break. It refuses to change the tree it lives in.
"""

import argparse
import sys
from pathlib import Path

# name: (module file, original text, broken text, what breaks)
MUTANTS = {
    "zf-noise-scale": (
        "rate_core.py",
        "p2_terms.extend(scale * err / ((M - K) * gam[j, k]) for k in range(K))",
        "p2_terms.extend(scale * err / (M * gam[j, k]) for k in range(K))",
        "closed-form ZF error leakage divided by M instead of M - K"),
    "mrt-lambda-x2": (
        "rate_core.py",
        "return (M / scenario.users_per_cell) * math.fsum(gam)",
        "return 2.0 * (M / scenario.users_per_cell) * math.fsum(gam)",
        "closed-form MRT normalisation off by a factor of 2"),
    "oracle-mrt-power": (
        "_kernels.py",
        "power = rho_d * np.einsum(\"cjm,cjm->cj\", tx, tx.conj()).real / (lam[None, :] * K)",
        "power = rho_d * np.einsum(\"cjm,cjm->cj\", tx, tx.conj()).real / (lam[None, :] * (K - 1))",
        "oracle MRT kernel normalises the radiated power by K - 1"),
    "oracle-zf-gain": (
        "_kernels.py",
        "row = u.conj()  ",
        "row = 0.98 * u.conj()  ",
        "oracle ZF kernel scales the effective channel by 0.98"),
    "pd-grid-endpoint": (
        "schemes.py",
        "mu = np.linspace(0.0, 1.0, grid)",
        "mu = np.linspace(0.0, 1.0, grid, endpoint=False)",
        "PD grid loses the mu = 1 edge, so the TIN corner is never evaluated"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("copy", nargs="?")
    parser.add_argument("mutant", nargs="?", choices=sorted(MUTANTS))
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    if args.list:
        for name, (module, _, _, what) in MUTANTS.items():
            print(f"{name:18} {module:13} {what}")
        return 0
    if not (args.copy and args.mutant):
        parser.error("give COPY and MUTANT, or --list")
    copy = Path(args.copy).resolve()
    if copy == Path(__file__).resolve().parent.parent:
        parser.error("COPY is this repository; mutate a separate copy")
    module, old, new, _ = MUTANTS[args.mutant]
    path = copy / "src" / "pcdl" / module
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        parser.error(f"{path}: expected exactly one occurrence of {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")
    print(f"{args.mutant}: changed {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
