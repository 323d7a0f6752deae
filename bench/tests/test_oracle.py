"""The independent oracle against values worked out by hand."""

from fractions import Fraction as Q

import oracle


def _image(text: str) -> dict:
    return oracle.assoc_image(oracle.parse_prim(text))


def _combine(terms) -> dict:
    out = {}
    for c, text in terms:
        for w, v in _image(text).items():
            out[w] = out.get(w, 0) + c * v
    return {w: v for w, v in out.items() if v}


def test_degree3_classical_bch():
    # x + y + 1/2 [x,y] + 1/12 [x,[x,y]] - 1/12 [y,[x,y]]
    want = _combine(
        [(1, "x"), (1, "y"), (Q(1, 2), "[x,y]"), (Q(1, 12), "[x,[x,y]]"), (Q(-1, 12), "[y,[x,y]]")]
    )
    got = {w: c for w, c in oracle.classical_bch(3).items() if c}
    assert got == want


def test_classical_bch_lists_every_word():
    assert len(oracle.classical_bch(8)) == 2 ** 9 - 2
    assert oracle.classical_bch(4)["xxyy"] == Q(1, 24)


def test_closed_form_x2y2_is_quarter():
    assert oracle.closed_form_xmyn(2, 2) == Q(1, 4)
    assert oracle.closed_form_xmyn(3, 1) == Q(3, 24)


def test_monomial_readers():
    x2y2 = [["x", "x"], ["y", "y"]]
    assert oracle.monomial_word(x2y2) == "xxyy"
    assert oracle.xmyn_shape(x2y2) == (2, 2)
    assert oracle.xmyn_shape([["x", "y"], "y"]) is None
    assert oracle.xmyn_text(2, 2) == "((xx)(yy))"
    assert oracle.text_xmyn_shape("((xx)(yy))") == (2, 2)
    assert oracle.text_xmyn_shape("((xy)y)") is None
    assert len(oracle.monomial_texts(7)) == 16896


def test_primitive_reader_and_associative_image():
    assert oracle.parse_prim("<x,y; x,[y,x]>") == (
        "s", (("g", "x"), ("g", "y")), ("g", "x"), ("c", ("g", "y"), ("g", "x"))
    )
    assert _image("Phi(x; y,y)") == {}
    assert _image("<x; x,y>") == {}
    assert _image("<; x,y>") == {"yx": 1, "xy": -1}
    assert _image("[[y,x],x]") == {"yxx": 1, "xyx": -2, "xxy": 1}
