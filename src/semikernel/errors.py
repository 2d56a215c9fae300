"""Exception types shared across the kernel.

Undecided results (budget exhaustion) are kept distinct from genuine
failures so the CLI can map them to their own exit code.
"""


class KernelError(Exception):
    """Base class for all kernel errors."""


class FormatError(KernelError):
    """Ill-formed input data: non-closed tables, dangling references, bad parameters."""


class UnsupportedError(KernelError):
    """Operation is outside the decidable fragment (e.g. no atom rule, infinite hom set)."""


class UndecidedError(KernelError):
    """A budget was exhausted before the computation finished; never a wrong answer."""


class CertificateError(KernelError):
    """A required certificate (flatness, alpha) is missing or failed."""


class InternalInvariantError(KernelError):
    """Bug trap: a well-definedness check that should hold by construction failed."""


def negative_count(k):
    """The error of a k-fold sum x + ... + x asked for with k < 0."""
    return InternalInvariantError(f"times_int: negative count k = {k}")
