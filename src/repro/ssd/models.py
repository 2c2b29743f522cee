"""Device presets for the drives the paper tested (Table I) and extras.

Table I of the paper::

    SSD  Size   Interface  Cache  ECC        Bit/Cell  Year
    A    256GB  SATA       Yes    Yes        MLC       2013
    B    120GB  SATA       Yes    Yes(LDPC)  TLC       2015
    C    120GB  SATA       Yes    Yes        MLC       N/A

Two units of each model were tested (six drives total).  The paper
anonymises the vendors; we encode the architectural differences the table
exposes — capacity, cell type, ECC class, and our calibrated per-family
firmware quality (recovery-scan success), which stands in for the vendor
differences the paper attributes failures to.

Extras beyond Table I: a supercap-protected enterprise model (the paper's
§I "high-end devices employ batteries and super-capacitors") and an
HDD-like control device (no volatile ack, conservative firmware).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.cache import SupercapBackup
from repro.errors import ConfigurationError
from repro.ftl import FtlConfig
from repro.nand import CellKind, EccScheme, NandTiming
from repro.ssd.device import SsdConfig
from repro.units import GIB


def ssd_a() -> SsdConfig:
    """Table I drive A: 256 GB, MLC, BCH-class ECC, 2013."""
    return SsdConfig(
        name="ssd-a",
        capacity_bytes=256 * GIB,
        cell=CellKind.MLC,
        ecc=EccScheme.bch(),
        release_year=2013,
        ftl=FtlConfig(page_recovery_prob=0.985, extent_recovery_prob=0.962),
    )


def ssd_b() -> SsdConfig:
    """Table I drive B: 120 GB, TLC with LDPC, 2015.

    TLC brings slower programs, three paired pages per wordline, and a much
    higher raw bit-error rate; the LDPC budget claws back most of the
    marginal-program damage.
    """
    return SsdConfig(
        name="ssd-b",
        capacity_bytes=120 * GIB,
        cell=CellKind.TLC,
        ecc=EccScheme.ldpc(),
        release_year=2015,
        ftl=FtlConfig(page_recovery_prob=0.988, extent_recovery_prob=0.968),
    )


def ssd_c() -> SsdConfig:
    """Table I drive C: 120 GB, MLC, BCH-class ECC, release year unknown.

    Modelled as a budget part: same cell/ECC class as A but a weaker
    recovery scan — the firmware-quality spread Zheng et al. observed
    between vendors.
    """
    return SsdConfig(
        name="ssd-c",
        capacity_bytes=120 * GIB,
        cell=CellKind.MLC,
        ecc=EccScheme.bch(),
        release_year=None,
        ftl=FtlConfig(page_recovery_prob=0.970, extent_recovery_prob=0.930),
    )


def ssd_enterprise_supercap() -> SsdConfig:
    """Extension: an enterprise drive with power-loss protection capacitors."""
    base = ssd_a()
    return replace(
        base,
        name="ssd-enterprise-plp",
        supercap=SupercapBackup(),
        ftl=FtlConfig(page_recovery_prob=0.999, extent_recovery_prob=0.998),
    )


def ssd_cache_disabled(base: SsdConfig) -> SsdConfig:
    """Variant of ``base`` with the volatile write cache disabled.

    Reproduces the paper's cache-off experiments (§IV-A, §IV-E): writes are
    acknowledged only after the pages are durable (write-through), yet
    failures persist because the mapping table is still volatile and
    programs still land on a sagging rail.
    """
    return replace(
        base,
        name=f"{base.name}-nocache",
        cache_enabled=False,
    )


def hdd_like_control() -> SsdConfig:
    """A control device approximating an HDD's power-fault envelope.

    No volatile write ack, near-perfect metadata recovery, SLC-like cell
    behaviour (no paired pages).  Useful in examples to contrast the SSD
    failure modes the paper highlights.
    """
    return SsdConfig(
        name="hdd-like-control",
        capacity_bytes=128 * GIB,
        cell=CellKind.SLC,
        ecc=EccScheme.bch(),
        cache_enabled=False,
        timing=NandTiming(program_base_us=900),
        ftl=FtlConfig(page_recovery_prob=0.9995, extent_recovery_prob=0.999),
        interface_overhead_us=800,  # seek-ish command cost
    )


_REGISTRY = {
    "ssd-a": ssd_a,
    "ssd-b": ssd_b,
    "ssd-c": ssd_c,
    "ssd-enterprise-plp": ssd_enterprise_supercap,
    "hdd-like-control": hdd_like_control,
}


def by_name(name: str) -> SsdConfig:
    """Look up a preset by its registered name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown device preset {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def preset_names() -> List[str]:
    """Registered preset names."""
    return sorted(_REGISTRY)


def table_one_units() -> Dict[str, SsdConfig]:
    """The paper's experimental population: two units of each Table I model."""
    units: Dict[str, SsdConfig] = {}
    for builder in (ssd_a, ssd_b, ssd_c):
        for unit in (1, 2):
            config = builder()
            units[f"{config.name}#{unit}"] = replace(config, name=f"{config.name}#{unit}")
    return units
