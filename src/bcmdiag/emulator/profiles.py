"""Security profiles: which firmware-generation bugs a controller
instance reproduces, and the optional MAC firewall.

Two published regressions are switched together, by one flag:

* CVE-2018-19860 -- the BPCS subtype handler table is indexed without a
  range check, so subtypes above 0x05 fall through into adjacent
  handler tables.  What an out-of-range subtype reaches differs per
  firmware build; the overflow map below is explicitly synthetic, with
  the one behavior known across vulnerable builds (0x95 lands on the
  device-under-test HCI handler) as its default.
* CVE-2019-6994 -- encryption setup accepted out of pairing order: a
  start-encryption request during a still-pending pairing drives the
  key calculation into a crash.
"""

from __future__ import annotations

from enum import Enum


class HandlerAction(Enum):
    """Effect of an out-of-bounds BPCS subtype on a vulnerable build."""

    DUT_MODE = "dut_mode"
    CRASH = "crash"
    NOP = "nop"


BPCS_DUT_SUBTYPE = 0x95


class SecurityProfile:
    def __init__(self, patched: bool = True) -> None:
        self.patched = patched  # False: both regressions above fire
        self.firewall_allowlist: set[bytes] | None = None  # None: the firewall is off
        # A fresh map per profile, so one profile's edits reach no other;
        # an unmapped subtype crashes.
        self.bpcs_overflow_map = {BPCS_DUT_SUBTYPE: HandlerAction.DUT_MODE}


def vulnerable_profile() -> SecurityProfile:
    """Both checks missing, as on the affected firmware builds."""
    return SecurityProfile(patched=False)


def patched_profile() -> SecurityProfile:
    return SecurityProfile(patched=True)


PROFILE_FACTORIES = {
    "vulnerable": vulnerable_profile,
    "patched": patched_profile,
    "default": patched_profile,
}
