"""Thresholds in the Poisson parameter, and sweep tables.

For fixed (l, lambda, alpha) the criteria vanish as m -> 0 and eventually
blow past alpha - 1, so a threshold m* separates members from non-members.
Each criterion reduces to rho(m) <= c with c = (alpha - 1)/(1 - alpha*lambda),
and rho crosses c exactly once, inside an interval known in closed form.  The
finder starts from that interval, refines it by ITP and certifies the result
by plugging m* back in.
"""

from touchardstar import ClassParams, find_threshold, sweep

p = ClassParams(lam=0.0, alpha=4.0 / 3.0)

print("membership thresholds m* (lambda=0, alpha=4/3):")
print(f"{'criterion':>10} {'l':>3} {'m*':>20} {'residual':>12} {'iters':>6}")
for which in ("M", "N", "integral"):
    for l in (0, 1, 2):
        t = find_threshold(which, l, p)
        print(f"{which:>10} {l:>3} {t.m_star:>20.12g} {t.residual:>12.2e} "
              f"{t.iterations:>6}")

print("\nhigher moment order concentrates the kernel coefficients further out,")
print("so the threshold shrinks as l grows.\n")

# a sweep table over m for two orders; rows keep grid order and carry a
# status column so one bad point cannot sink the table
table = sweep(
    "M",
    {
        "l": [0, 1],
        "m": [0.1, 0.3, 0.5, 0.7, 0.9],
        "lambda": [0.0],
        "alpha": [4.0 / 3.0],
    },
)
print("sweep (CSV, ready for external plotting):")
print(table.to_csv())

t0 = find_threshold("M", 0, p)
flips = [
    (row["m"], row["member"])
    for row in table.rows
    if row["l"] == 0
]
print(f"member column flips once, consistent with m* = {t0.m_star:.6f}:")
print("  ", flips)
