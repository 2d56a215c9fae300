"""semikernel: a desk-scale computer algebra kernel for semirings, semimodules,
semicorings and semicomodules.

All values are immutable after construction and every operation is pure, so
concurrent reads are safe everywhere; what is derived on first use (a
semiring's axiom report and flags, its operation memos) stores only what it
would recompute.
"""

__version__ = "0.1.0"
