"""Fast self-test of the benchmark's reference code (no program import).

    python3 bench/selftest.py

Prints one line per check and exits non-zero if any fails.
"""

import sys
from math import pi, sqrt

import numpy as np
from scipy.special import i0

import reference as ref


def main() -> int:
    checks = []

    def check(name, ok, detail):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    G = ref.overlap_quad(64)
    off = G - np.diag(np.diag(G))
    same_parity = np.equal.outer(np.arange(65) % 2, np.arange(65) % 2)
    check("G_nn = 1/2", np.max(np.abs(np.diag(G) - 0.5)) < 1e-13,
          f"max error {np.max(np.abs(np.diag(G) - 0.5)):.1e}")
    check("same-parity off-diagonal G = 0", np.max(np.abs(off[same_parity])) < 1e-13,
          f"max {np.max(np.abs(off[same_parity])):.1e}")
    check("G_01 = 1/sqrt(2 pi)", abs(G[0, 1] - 1 / sqrt(2 * pi)) < 1e-14, f"{G[0, 1]!r}")
    gap = np.max(np.abs(G - ref.overlap_closed(64)))
    check("quadrature table = Wronskian closed form", gap < 1e-12, f"max gap {gap:.1e}")

    b_star, s_star = ref.ceiling(10)
    check("N = 10 ceiling",
          abs(b_star - 2.0919544289) < 1e-10 and abs(s_star - 1.0229886072) < 1e-10,
          f"B* = {b_star:.10f}, S* = {s_star:.10f} (2.0919544289, 1.0229886072)")
    check("B* = 4 S* - 2", abs(b_star - (4 * s_star - 2)) < 1e-14,
          f"{b_star - (4 * s_star - 2):.1e}")

    c = ref.pipelined(ref.XI)
    b, s = ref.chsh_B(c, ref.CHI), ref.ch_S(c, ref.CHI)
    check("pipelined state prints as the paper's B, S",
          (round(b, 4), round(s, 4)) == (2.0715, 1.0179),
          f"B = {b:.6f}, S = {s:.6f}")
    check("pipelined state has unit norm and cutoff 31", abs(c @ c - 1) < 1e-14 and c.size == 32,
          f"norm^2 - 1 = {c @ c - 1:.1e}")
    fixed = ref.seed(0.0, 8)
    check("vacuum gives P++ = 1/4", abs(ref.p_plus_plus(fixed, 0.3) - 0.25) < 1e-14,
          f"{ref.p_plus_plus(fixed, 0.3)!r}")
    check("circle(r)_0 = 1/sqrt(I0(2 r^2))",
          abs(ref.circle(1.12)[0] - i0(2 * 1.12 ** 2) ** -0.5) < 1e-14,
          f"{ref.circle(1.12)[0]!r}")
    worst = max(abs(ref.chsh_B(ref.tmss(lam, 64), chi))
                for lam in (0.3, 0.6, 0.9) for chi in np.linspace(0.05, pi / 2, 7))
    check("tmss never violates", worst <= 2.0, f"max |B| = {worst:.6f}")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
