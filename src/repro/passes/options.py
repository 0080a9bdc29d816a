"""Options of the hardening transforms.

Kept apart from the transforms so that the variant registry
(:mod:`repro.toolchain.registry`), which builds an options value for
every variant when it is imported, loads no transform.
"""

from __future__ import annotations

from dataclasses import dataclass

LANES = 4


@dataclass(frozen=True)
class ElzarOptions:
    """Configuration knobs for the experiments.

    The check_* flags reproduce Figure 12's ablation ("no loads",
    "+ no stores", "+ no branches", "all checks disabled");
    ``float_only`` reproduces the stripped-down version of §V-B that
    replicates floats/doubles but not integers and pointers.
    """

    lanes: int = LANES
    check_loads: bool = True
    check_stores: bool = True
    check_branches: bool = True
    check_other: bool = True  # calls, returns
    float_only: bool = False
    #: Detection-only ablation: checks fail-stop instead of recovering
    #: by majority vote (the HAFT-style division of labour the paper
    #: contrasts itself with in §II-A: detection in-thread, recovery
    #: delegated to an external mechanism).
    fail_stop: bool = False
    #: Functions copied verbatim instead of hardened — the paper leaves
    #: third-party libraries unprotected (§IV-A, §VI Apache).
    exclude: frozenset = frozenset()

    def __post_init__(self):
        if self.lanes < 2:
            raise ValueError("replication needs at least 2 lanes")
        if self.lanes < 3 and not self.fail_stop:
            raise ValueError(
                "majority voting needs >=3 replicas (paper §II-B); use "
                "fail_stop=True for 2-lane detection-only hardening"
            )

    @staticmethod
    def no_checks() -> "ElzarOptions":
        return ElzarOptions(
            check_loads=False,
            check_stores=False,
            check_branches=False,
            check_other=False,
        )


@dataclass(frozen=True)
class SwiftOptions:
    copies: int = 3           # 3 = SWIFT-R (TMR), 2 = SWIFT (DMR)
    check_loads: bool = True
    check_stores: bool = True
    check_branches: bool = True
    check_other: bool = True
    #: Functions copied verbatim instead of hardened (third-party code).
    exclude: frozenset = frozenset()

    def __post_init__(self):
        if self.copies not in (2, 3):
            raise ValueError("copies must be 2 (SWIFT) or 3 (SWIFT-R)")
