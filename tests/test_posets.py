import pytest

from incalg import (
    GateError,
    ParseError,
    Poset,
    PosetError,
    builtin_poset,
    format_poset,
    parse_poset,
    resolve_poset,
)

from conftest import POSET_POOL, mixed_poset


def test_transitive_closure_inferred():
    p = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.less_equal("a", "c")
    assert p.strict_pairs == (("a", "b"), ("a", "c"), ("b", "c"))


def test_antichain_from_no_relations():
    p = Poset.from_relations(["a", "b"], [])
    assert p.strict_pairs == ()
    assert not p.less_equal("a", "b")


def test_cycle_rejected():
    with pytest.raises(PosetError, match="cycle"):
        Poset.from_relations(["a", "b"], [("a", "b"), ("b", "a")])


def test_non_square_order_matrix_rejected():
    with pytest.raises(PosetError, match="3x3 matrix"):
        Poset(["a", "b", "c"], [[1, 1, 0], [0, 1, 1]])
    with pytest.raises(PosetError, match="3x3 matrix"):
        Poset(["a", "b", "c"], [[1, 1], [0, 1], [0, 0]])


def test_non_reflexive_order_rejected():
    with pytest.raises(PosetError, match="not reflexive: b <= b"):
        Poset(["a", "b"], [[1, 1], [0, 0]])


def test_non_antisymmetric_order_rejected():
    with pytest.raises(PosetError, match="cycle: a and b"):
        Poset(["a", "b"], [[1, 1], [1, 1]])


def test_non_transitive_order_rejected():
    with pytest.raises(PosetError, match="not transitive: a <= b <= c"):
        Poset(["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def test_duplicate_labels_rejected():
    with pytest.raises(PosetError, match="duplicate"):
        Poset.from_relations(["a", "a"], [])


def test_bad_label_rejected():
    with pytest.raises(PosetError, match="bad element label"):
        Poset.from_relations(["a,b"], [])


def test_constructor_rejects_duplicate_and_malformed_labels():
    """Direct construction and ``dual()`` check labels as ``from_relations``
    does; a duplicate would collapse ``pair_index``, and a label with a space
    would not read back from ``format_poset``."""
    with pytest.raises(PosetError, match="duplicate element label: 'a'"):
        Poset(["a", "a"], [[1, 0], [0, 1]])
    for label in ("a b", "", "a<b", 1):
        with pytest.raises(PosetError, match="bad element label"):
            Poset([label, "c"], [[1, 0], [0, 1]])
    v = builtin_poset("v")
    with pytest.raises(PosetError, match="duplicate"):
        Poset(("a", "a", "c"), v.leq).dual()


def test_strict_pairs_of_v_poset():
    v = builtin_poset("v")
    assert v.strict_pairs == (("a", "c"), ("b", "c"))


def test_connectivity():
    assert builtin_poset("chain:3").is_connected()
    assert not builtin_poset("antichain:2").is_connected()
    assert builtin_poset("v").is_connected()
    assert not mixed_poset().is_connected()


def test_dual():
    chain = builtin_poset("chain:3")
    d = chain.dual()
    assert d.less_equal("3", "1") and not d.less_equal("1", "3")
    anti = builtin_poset("antichain:4")
    assert anti.dual() == anti
    for p in POSET_POOL:
        assert p.dual().dual() == p


def test_deeply_nested_dual_references_resolve():
    """``dual(`` prefixes unwrap in a loop, so a depth past the recursion
    limit resolves, keeps the reference as its name, and an error names the
    innermost reference."""
    depth = 2000
    even = "dual(" * depth + "v" + ")" * depth
    odd = f"dual({even})"
    assert resolve_poset(even) == builtin_poset("v")
    assert resolve_poset(odd) == builtin_poset("v").dual()
    assert resolve_poset(odd).name == odd
    with pytest.raises(PosetError, match="not a file: 'w'$"):
        resolve_poset("dual(" * depth + "w" + ")" * depth)


def test_longest_chain():
    assert builtin_poset("chain:3").longest_chain == 3
    assert builtin_poset("antichain:4").longest_chain == 1
    assert builtin_poset("v").longest_chain == 2
    assert builtin_poset("diamond").longest_chain == 3


def test_order_axioms_exhaustive():
    big = Poset.from_relations(
        [f"x{i}" for i in range(12)],
        [(f"x{i}", f"x{i + 1}") for i in range(0, 10, 2)]
        + [("x0", "x11"), ("x7", "x9")],
    )
    for p in POSET_POOL + [big]:
        n = p.n
        for i in range(n):
            assert p.leq[i][i]
            for j in range(n):
                if i != j:
                    assert not (p.leq[i][j] and p.leq[j][i])
                for k in range(n):
                    if p.leq[i][j] and p.leq[j][k]:
                        assert p.leq[i][k]


def test_strict_pair_count_matches_relation_size():
    for p in POSET_POOL:
        true_entries = sum(sum(row) for row in p.leq)
        assert len(p.strict_pairs) + p.n == true_entries


def test_basis_order_is_diagonals_then_strict_pairs():
    p = builtin_poset("chain:2")
    assert p.basis_pairs == (("1", "1"), ("2", "2"), ("1", "2"))
    assert p.dimension == 3


def test_algebra_size_gate():
    big = Poset.from_relations([f"x{i}" for i in range(17)], [])
    with pytest.raises(GateError):
        big.basis_pairs


def test_oversized_references_are_refused_before_they_are_built():
    """A builtin size is read from its digits and a poset file's size from
    its ``elements:`` line, before any label or order is built; a size of
    more than 24 digits is shortened."""
    with pytest.raises(GateError, match=r": 17 elements > cap 16$") as info:
        builtin_poset("antichain:017")
    assert info.value.size == 17
    with pytest.raises(GateError, match=r": 99999999 elements > cap 16$"):
        builtin_poset("chain:99999999")
    with pytest.raises(GateError, match=r": 9{24} elements > cap 16$") as info:
        builtin_poset("chain:" + "9" * 24)
    assert info.value.size == int("9" * 24)
    with pytest.raises(GateError, match=r": 9{20}\.\.\. elements > cap 16$") as info:
        builtin_poset("chain:" + "9" * 25)
    assert info.value.size is None
    with pytest.raises(GateError, match=r": 7{20}\.\.\. elements > cap 16$") as info:
        builtin_poset("chain:" + "7" * 5000)
    assert info.value.size is None
    labels = " ".join(f"x{i}" for i in range(400))
    with pytest.raises(GateError, match=r": 400 elements > cap 16$"):
        parse_poset(f"poset\nelements: {labels}\nrelations: x0<x1\n")
    assert builtin_poset("chain:016").n == 16


def test_builtins():
    assert builtin_poset("chain:4").elements == ("1", "2", "3", "4")
    assert builtin_poset("antichain:2").strict_pairs == ()
    d = builtin_poset("diamond")
    assert d.less_equal("a", "d") and not d.less_equal("b", "c")
    with pytest.raises(PosetError):
        builtin_poset("cube")
    with pytest.raises(PosetError):
        builtin_poset("chain:0")


@pytest.mark.parametrize("spec", ["chain:\u0663", "antichain:\u0662", "chain:1_0", "chain:3\n"])
def test_builtin_sizes_are_ascii_decimal(spec):
    """``\\d`` and ``int`` would build chain:3 under the name 'chain:\u0663'."""
    with pytest.raises(PosetError, match="unknown builtin poset"):
        builtin_poset(spec)


def test_parse_format_round_trip():
    for p in POSET_POOL:
        assert parse_poset(format_poset(p)) == p


def test_parse_poset_file():
    text = "poset\nelements: a b c\nrelations: a<b b<c\n"
    p = parse_poset(text)
    assert p.less_equal("a", "c")
    assert len(p.strict_pairs) == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_poset("nonsense\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_poset("poset\nelements: a b\nrelations: a*b\n")
    with pytest.raises(ParseError, match="relations"):
        parse_poset("poset\nelements: a b\n")


def test_size_attribute_counts_the_elements(tmp_path):
    """``Poset.n`` is set once at construction; it stays the element count
    for builtin posets, posets read from a file and their duals."""
    path = tmp_path / "p.txt"
    path.write_text("poset\nelements: a b c d e\nrelations: a<b c<d\n")
    posets = [builtin_poset(name) for name in ("chain:1", "antichain:4", "v", "diamond")]
    posets += [resolve_poset(str(path)), parse_poset(format_poset(mixed_poset()))]
    for poset in posets + [p.dual() for p in posets]:
        assert poset.n == len(poset.elements)
    assert [p.n for p in posets] == [1, 4, 3, 4, 5, 6]
