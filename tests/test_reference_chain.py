"""``ReferenceChain``: the one anchor/B reorder every decode loop owns."""

import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import ReferenceChain
from repro.mpeg2.encoder import EncoderConfig, plan_gop_structure

I, P, B = PictureType.I, PictureType.P, PictureType.B


def run(chain, coded):
    """Push ``(ptype, name)`` pictures in coded order; returns the
    references each one read and the names in the order they came out."""
    read, shown = [], []
    for ptype, name in coded:
        read.append(chain.refs(ptype))
        out = chain.push(ptype, name)
        if out is not None:
            shown.append(out)
    return read, shown


def test_ipbbpbb_comes_out_in_display_order():
    chain = ReferenceChain()
    coded = [(I, 0), (P, 3), (B, 1), (B, 2), (P, 6), (B, 4), (B, 5)]
    read, shown = run(chain, coded)
    assert read == [
        (None, None), (0, None), (0, 3), (0, 3), (3, None), (3, 6), (3, 6),
    ]
    assert shown == [0, 1, 2, 3, 4, 5]
    assert chain.flush() == 6
    assert chain.flush() is None  # the held anchor leaves once


def test_open_gop_leading_b_pictures_reach_back_across_the_gop():
    """The references the encoder planned (``tests/test_open_gop.py``: B4/B5
    display before I6 and predict from P3 and I6) are the ones the chain
    hands out, picture for picture."""
    plans = plan_gop_structure(
        14, EncoderConfig(gop_size=6, b_frames=2, closed_gop=False)
    )
    chain = ReferenceChain()
    read, shown = run(chain, [(p.picture_type, p.display_index) for p in plans])
    for p, refs in zip(plans, read):
        assert refs == (p.fwd_ref, p.bwd_ref), p
    leading = [p for p in plans if p.picture_type == B and p.display_index in (4, 5)]
    assert [(p.fwd_ref, p.bwd_ref) for p in leading] == [(3, 6), (3, 6)]
    tail = chain.flush()
    assert shown + [tail] == list(range(14))


def test_missing_references_raise():
    chain = ReferenceChain()
    with pytest.raises(ValueError, match="P-picture without forward reference"):
        chain.refs(P)
    with pytest.raises(ValueError, match="B-picture without two references"):
        chain.refs(B)
    chain.push(I, "i0")
    with pytest.raises(ValueError, match="B-picture without two references"):
        chain.refs(B)  # one anchor is not two
    assert chain.refs(P) == ("i0", None)


def test_reset_refuses_prediction_until_the_next_i():
    chain = ReferenceChain()
    run(chain, [(I, 0), (P, 1)])
    chain.reset()
    assert chain.flush() is None  # what was held is gone, not displayed
    for ptype in (P, B):
        with pytest.raises(ValueError):
            chain.refs(ptype)
    assert chain.refs(I) == (None, None)
    chain.push(I, 2)
    assert chain.refs(P) == (2, None)
