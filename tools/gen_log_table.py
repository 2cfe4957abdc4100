#!/usr/bin/env python3
"""Generate src/workload/log_table.inc, the table workload::log_batch reads.

    python3 tools/gen_log_table.py > src/workload/log_table.inc

log_batch reduces x = 2^k * z with z in [0.6875, 1.375) (the offset
0x3fe6000000000000 of glibc's log), and splits that range into 256
intervals: 160 of width 1/512 below 1, 96 of width 1/256 from 1 up.
Entry i holds invc, the double nearest 1/center of interval i, and
-log(invc) as a double-double (logc_hi + logc_lo).  The two intervals
that touch 1 get invc = 1 exactly, so log(x) near 1 is log1p(z - 1)
with no table term to cancel against.  Also emitted: ln 2 split into a
42-bit head (k * head is exact for every exponent k) and its tail.

Stdlib only: the logarithms come from decimal at 60 digits, and
Python's float(Decimal) rounds correctly.
"""

from decimal import Decimal, getcontext
from fractions import Fraction

getcontext().prec = 60

ENTRIES = 256
BELOW_ONE = 160  # intervals in [0.6875, 1), width 1/512


def interval(i):
    """The exact bounds of interval i as Fractions."""
    if i < BELOW_ONE:
        lo = Fraction(11, 16) + Fraction(i, 512)
        return lo, lo + Fraction(1, 512)
    lo = 1 + Fraction(i - BELOW_ONE, 256)
    return lo, lo + Fraction(1, 256)


def split(value):
    """value (a Decimal) as a double-double (hi, lo)."""
    hi = float(value)
    return hi, float(value - Decimal(hi))


def main():
    print("// Generated by tools/gen_log_table.py; do not edit.")
    print("// {invc, -log(invc) head, -log(invc) tail} per interval of z.")
    print("const std::array<LogTableEntry, 256> kLogTable = {{")
    for i in range(ENTRIES):
        lo, hi = interval(i)
        if lo == 1 or hi == 1:
            invc = 1.0
        else:
            center = (lo + hi) / 2
            invc = float(1 / center)  # Fraction -> float rounds to nearest
        logc_hi, logc_lo = split(-Decimal(invc).ln())
        print(f"    {{{invc.hex()}, {logc_hi.hex()}, {logc_lo.hex()}}},")
    print("}};")
    ln2 = Decimal(2).ln()
    head = float((ln2 * 2**42).to_integral_value()) / 2**42  # 43 bits, exact
    print(f"constexpr double kLn2Hi = {head.hex()};")
    print(f"constexpr double kLn2Lo = {float(ln2 - Decimal(head)).hex()};")


if __name__ == "__main__":
    main()
