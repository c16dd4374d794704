"""Ablation benches for the DESIGN.md §4 design-choice list.

Not figures from the paper itself, but the quantitative backing for its
design decisions: BWB geometry, MCQ depth, non-blocking resize, bounds
forwarding, and the metadata-entropy trade-off against memory tagging.
"""

from conftest import publish

from repro.experiments.ablations import (
    ablation_bwb,
    ablation_entropy,
    ablation_forwarding,
    ablation_mcq,
    ablation_quarantine,
    ablation_resize,
)


def test_ablation_bwb(suite, benchmark):
    result = ablation_bwb(suite, workload="omnetpp")
    publish("ablation_bwb", result.format())

    rows = result.rows
    # A bigger BWB never searches more ways per check.
    assert rows["256 entries"]["acc/check"] <= rows["16 entries"]["acc/check"] + 0.05
    # Disabling the BWB cannot beat the 64-entry Table IV design.
    assert rows["disabled"]["norm.time"] >= rows["64 entries"]["norm.time"] - 0.02

    benchmark(lambda: ablation_entropy())


def test_ablation_mcq(suite, benchmark):
    result = ablation_mcq(suite, workload="hmmer")
    publish("ablation_mcq", result.format())

    rows = result.rows
    # A deeper MCQ relieves issue back-pressure monotonically (roughly).
    assert rows["192 entries"]["norm.time"] <= rows["12 entries"]["norm.time"]
    # The Table IV pick (48) captures most of the benefit of 192.
    gap = rows["48 entries"]["norm.time"] - rows["192 entries"]["norm.time"]
    assert gap < 0.25

    benchmark(lambda: ablation_entropy())


def test_ablation_resize_and_forwarding(suite, benchmark):
    resize = ablation_resize(suite, workload="omnetpp")
    forwarding = ablation_forwarding(suite, workload="omnetpp")
    publish(
        "ablation_resize_forwarding",
        resize.format() + "\n\n" + forwarding.format(),
    )

    # The growth phase overflows the HBT inside the 40k window (the 12k
    # --quick window ends before the first overflow).
    for row in ("non-blocking", "stop-the-world"):
        assert resize.rows[row]["resizes"] >= 1, row
    # Non-blocking resizing must not be slower than stop-the-world.
    assert (
        resize.rows["non-blocking"]["norm.time"]
        <= resize.rows["stop-the-world"]["norm.time"] + 0.01
    )
    # Forwarding helps a malloc-heavy workload (§V-F2).
    assert (
        forwarding.rows["forwarding"]["norm.time"]
        <= forwarding.rows["no forwarding"]["norm.time"] + 0.01
    )
    assert forwarding.rows["forwarding"]["forwards"] > 0

    benchmark(lambda: ablation_entropy())


def test_ablation_quarantine(suite, benchmark):
    """§IV-C: the quarantine pool dominates REST's temporal-safety cost;
    AOS's re-sign-on-free avoids it entirely."""
    result = ablation_quarantine(suite, workload="omnetpp")
    publish("ablation_quarantine", result.format())

    with_q = result.rows["rest (quarantine)"]["norm.time"] - 1.0
    without_q = result.rows["rest (no temporal)"]["norm.time"] - 1.0
    # The quarantine accounts for the majority of REST's overhead (§IV-C).
    assert with_q > without_q
    assert (with_q - without_q) / max(with_q, 1e-9) > 0.4

    benchmark(lambda: ablation_entropy())


def test_ablation_entropy(benchmark):
    result = ablation_entropy()
    publish("ablation_entropy", result.format())

    rows = result.rows
    assert rows["4-bit (MTE)"]["detection"] == 0.9375     # the §X "94%"
    assert rows["16-bit (AOS)"]["tries@50%"] == 45425     # §VII-E
    assert rows["32-bit"]["tries@50%"] > rows["16-bit (AOS)"]["tries@50%"]

    benchmark(lambda: ablation_entropy())
