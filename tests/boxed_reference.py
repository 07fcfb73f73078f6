"""The boxed-``Scalar`` kernels that the library's value-coded kernels
replaced, kept as the reference for the differential tests in
``test_kernel.py``.

Each function is the earlier library code, unchanged except that calls of
``phi.apply`` go to :func:`boxed_apply`, products in :func:`boxed_inverse` go
to :func:`boxed_convolve`, and the preserver check inside the strongness scan
goes to :func:`boxed_find_nonpreserved_unit`. Every product and sum runs
through ``Scalar``'s operators, which coerce and check the field of each
operand, and every pattern of a scan is applied as a whole element.
:func:`boxed_to_xor_endo` checks additivity mask by mask with
``XorEndo.apply_mask``. :func:`boxed_is_unital`, :func:`boxed_spec_checks`
and stage (i) of :func:`boxed_find_nonpreserved_unit` apply the map to
delta, where the library reads row sums off the map's values.
:func:`boxed_scale` multiplies boxed entries and rebuilds a checked map.
:func:`boxed_add` and :func:`boxed_sub` add every coefficient pair through
``Scalar``'s operators, where the library skips a pair with a zero side.
:func:`boxed_find_jordan_counterexample` scans every ordered basis pair and
applies the map to each Jordan product, with products through
:func:`boxed_convolve` and sums through :func:`boxed_add`; :func:`boxed_is_separating` and
:func:`boxed_is_boolean_endo` scan the subset pairs that the library's
O(n 2^n) checks replace (the library's 4^n gate on those scans is gone, and
so is its call here). :func:`boxed_span_table` builds a span table entry by
entry, by the lowest-bit recurrence that the library's doubling replaced.
:func:`boxed_find_inverse_counterexample` builds every unit in its scan and
compares phi(u^-1) with phi(u)^-1 through :func:`boxed_apply` and
:func:`boxed_inverse`, where the library lists the units with their inverses
once and tests phi(u) phi(u^-1) = delta. :func:`boxed_unital_reduction`
builds psi = phi(delta)^-1 phi from boxed products and rebuilds it through
``LinearMap.from_basis_images``, where the library convolves the values of
each column of the matrix. :func:`plain_record_json` formats one census
record entry by entry, where ``CensusReport.to_json`` formats each distinct
row and lambda image of a report once.
"""

from itertools import product

from incalg.algebra import FIElement, basis_element, format_element, indicator
from incalg.endos import (
    PartitionEndo,
    SubsetMapTable,
    XorEndo,
    endo_to_json,
    labels_of,
)
from incalg.errors import (
    ClassificationError,
    FieldMismatchError,
    MismatchError,
    NotAUnitError,
)
from incalg.preservers import LinearMap, _gate, _require_prime, psi_to_json
from incalg.verify import _lemma_checks


def boxed_apply(phi, a):
    if a.poset != phi.poset:
        raise MismatchError("map and element live over different posets")
    if a.field != phi.field:
        raise FieldMismatchError("map and element live over different fields")
    zero = phi.field.zero
    out = []
    for row in phi.rows:
        acc = zero
        for c, v in zip(row, a.coeffs):
            if c and v:
                acc = acc + c * v
        out.append(acc)
    return FIElement(phi.poset, phi.field, out)


def boxed_convolve(x, y):
    x._check_compat(y)
    a, b = x.coeffs, y.coeffs
    zero = x.field.zero
    out = []
    for terms in x.poset.convolution_plan:
        acc = zero
        for i, j in terms:
            acc = acc + a[i] * b[j]
        out.append(acc)
    return FIElement(x.poset, x.field, out)


def boxed_extract_subset_map(phi):
    poset, field = phi.poset, phi.field
    n = poset.n
    elements = poset.elements
    one = field.one
    table = []
    for mask in range(1 << n):
        e_a = FIElement.from_dict(
            poset, field,
            {(x, x): 1 for i, x in enumerate(elements) if mask >> i & 1})
        image = boxed_apply(phi, e_a)
        out = 0
        for i in range(n):
            c = image.coeffs[i]
            if c == one:
                out |= 1 << i
            elif c:
                subset = ", ".join(x for j, x in enumerate(elements) if mask >> j & 1)
                raise ClassificationError(
                    "from-vf-to-lb",
                    f"diagonal value {field.format_scalar(c)} outside {{0, 1}} "
                    f"at {elements[i]} for the idempotent of {{{subset}}}",
                    witness=f"A = {{{subset}}}")
        table.append(out)
    return SubsetMapTable(elements, tuple(table))


def boxed_find_nonpreserved_unit(phi, gate_override=False):
    field = _require_prime(phi.field, "preserves_invertibility", classified=True)
    poset = phi.poset
    n, d = poset.n, poset.dimension
    delta = FIElement.delta(poset, field)
    image_delta = boxed_apply(phi, delta)
    for i in range(n):
        for j in range(n, d):
            c = phi.rows[i][j]
            if c:
                t = -(image_delta.coeffs[i] * c.inverse())
                x, y = poset.basis_pairs[j]
                return delta + basis_element(poset, field, x, y).scale(t)
    _gate((field.p - 1) ** n, "preserves_invertibility", gate_override)
    nonzero = field.elements()[1:]
    for diag in product(nonzero, repeat=n):
        u = FIElement.from_dict(
            poset, field, {(x, x): v for x, v in zip(poset.elements, diag)})
        if not boxed_apply(phi, u).is_unit():
            return u
    return None


def boxed_is_unital(phi):
    delta = FIElement.delta(phi.poset, phi.field)
    return boxed_apply(phi, delta) == delta


def boxed_spec_checks(poset, field, endo, radical_map):
    """``PreserverSpec.__post_init__``: raises ``MismatchError`` on the first
    failed check, or returns None."""
    if endo.elements != poset.elements:
        raise MismatchError("endomorphism ambient set must match the poset elements")
    if field.cardinality == 2 and not isinstance(endo, XorEndo):
        raise MismatchError("over F_2 the endomorphism must be in GF(2)-matrix form")
    if field.cardinality != 2 and not isinstance(endo, PartitionEndo):
        raise MismatchError("with |K| > 2 the endomorphism must be in partition form")
    if radical_map.poset != poset or radical_map.field != field:
        raise MismatchError("radical map must live over the same poset and field")
    n = poset.n
    if any(any(row) for row in radical_map.rows[:n]):
        raise MismatchError("radical map must have zero diagonal-output rows")
    delta = FIElement.delta(poset, field)
    if not boxed_apply(radical_map, delta).is_zero():
        raise MismatchError("psi must annihilate delta")


def boxed_find_strongness_counterexample(phi, gate_override=False):
    field = _require_prime(phi.field, "is_strong", classified=True)
    if (not boxed_is_unital(phi)
            or boxed_find_nonpreserved_unit(phi, gate_override) is not None):
        raise ValueError("is_strong requires a unital invertibility preserver")
    poset = phi.poset
    n = poset.n
    _gate(field.p ** n, "is_strong", gate_override)
    for diag in product(field.elements(), repeat=n):
        if all(diag):
            continue
        a = FIElement.from_dict(
            poset, field, {(x, x): v for x, v in zip(poset.elements, diag)})
        if boxed_apply(phi, a).is_unit():
            return a
    return None


def boxed_inverse(a):
    if not a.is_unit():
        raise NotAUnitError("element has a zero diagonal coefficient")
    diag_inv = FIElement.from_dict(
        a.poset, a.field,
        {(x, x): a.coeffs[i].inverse() for i, x in enumerate(a.poset.elements)})
    _, rad = a.decompose()
    nilpotent = boxed_convolve(diag_inv, rad).__neg__()  # -nu, strictly triangular
    acc = FIElement.delta(a.poset, a.field)
    term = acc
    for _ in range(a.poset.longest_chain - 1):
        term = boxed_convolve(term, nilpotent)
        if term.is_zero():
            break
        acc = acc + term
    return boxed_convolve(acc, diag_inv)


def boxed_find_inverse_counterexample(phi, gate_override=False):
    field = _require_prime(phi.field, "preserves_inverses")
    poset = phi.poset
    n, d = poset.n, poset.dimension
    _gate((field.p - 1) ** n * field.p ** (d - n), "preserves_inverses", gate_override)
    values = field.elements()
    for diag in product(values[1:], repeat=n):
        for tail in product(values, repeat=d - n):
            u = FIElement(poset, field, diag + tail)
            if boxed_apply(phi, boxed_inverse(u)) != boxed_inverse(boxed_apply(phi, u)):
                return u
    return None


def boxed_lemma_checks(phi, table, sample):
    """``_lemma_checks`` with ``vf-maps-J-to-J`` and its two element-level
    laws computed by the earlier loops, which apply the map to elements; the
    other laws are the library's, in the library's order. ``sample`` holds
    coefficient tuples, as for ``_lemma_checks``."""
    poset, field = phi.poset, phi.field
    n = poset.n
    out = _lemma_checks(phi, table, sample)
    sample = [FIElement.from_vector(poset, field, vals) for vals in sample]

    # radical maps into the radical
    witness = None
    for x, y in poset.strict_pairs:
        image = boxed_apply(phi, basis_element(poset, field, x, y))
        if any(image.coeffs[:n]):
            witness = f"phi(e[{x},{y}]) has a nonzero diagonal"
            break
    out["vf-maps-J-to-J"] = witness

    # the image diagonal only depends on the input diagonal
    witness = None
    for a in sample:
        diag_part, _ = a.decompose()
        if boxed_apply(phi, a).diagonal() != boxed_apply(phi, diag_part).diagonal():
            witness = f"alpha = {format_element(a)}"
            break
    out["vf(f)_D-is-vf(f_D)_D"] = witness

    if field.cardinality != 2:
        # the image diagonal is the level-set decomposition pushed through
        witness = None
        for a in sample:
            expected = FIElement.zero(poset, field)
            for k in field.elements():
                level_mask = 0
                for i in range(n):
                    if a.coeffs[i] == k:
                        level_mask |= 1 << i
                image_mask = table.table[level_mask]
                expected = expected + indicator(
                    poset, field, labels_of(poset.elements, image_mask)).scale(k)
            if boxed_apply(phi, a).diagonal() != expected.diagonal():
                witness = f"alpha = {format_element(a)}"
                break
        out["vf(f)_D=sum-k-e_lb(L_k)"] = witness
    return out


def boxed_matrix_rank(rows):
    rows = [list(r) for r in rows]
    height = len(rows)
    width = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < height and col < width:
        pivot = next((r for r in range(rank, height) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * v for v in rows[rank]]
        for r in range(height):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def boxed_to_xor_endo(table):
    n = table.n
    full = (1 << n) - 1
    columns = tuple(table.table[1 << i] for i in range(n))
    acc = 0
    for c in columns:
        acc ^= c
    if table.table[full] != full or acc != full:
        raise ClassificationError(
            "lb-prese-symm-diff",
            "table does not fix X, or its singleton images do not combine to X")
    endo = XorEndo(table.elements, columns)
    for m in range(full + 1):
        if endo.apply_mask(m) != table.table[m]:
            raise ClassificationError(
                "lb-prese-symm-diff",
                "table is not additive over symmetric difference",
                witness=f"A = {{{', '.join(sorted(labels_of(table.elements, m)))}}}")
    return endo


def boxed_scale(phi, k):
    k = phi.field.scalar(k)
    return LinearMap(phi.poset, phi.field, [[k * c for c in row] for row in phi.rows])


def boxed_add(x, y):
    x._check_compat(y)
    return FIElement(x.poset, x.field, [a + b for a, b in zip(x.coeffs, y.coeffs)])


def boxed_sub(x, y):
    x._check_compat(y)
    return FIElement(x.poset, x.field, [a - b for a, b in zip(x.coeffs, y.coeffs)])


def _boxed_jordan_product(a, b):
    return boxed_add(boxed_convolve(a, b), boxed_convolve(b, a))


def boxed_find_jordan_counterexample(phi):
    poset, field = phi.poset, phi.field
    basis = [basis_element(poset, field, x, y) for x, y in poset.basis_pairs]
    images = [boxed_apply(phi, b) for b in basis]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if (boxed_apply(phi, _boxed_jordan_product(a, b))
                    != _boxed_jordan_product(images[i], images[j])):
                return a, b
    return None


def boxed_is_separating(table):
    full = (1 << table.n) - 1
    for a in range(full + 1):
        rest = full & ~a
        b = rest
        while True:
            if table.table[a] & table.table[b]:
                return False
            if b == 0:
                break
            b = (b - 1) & rest
    return True


def boxed_is_boolean_endo(table):
    full = (1 << table.n) - 1
    t = table.table
    if t[full] != full:
        return False
    for a in range(full + 1):
        if t[full & ~a] != full & ~t[a]:
            return False
    for a in range(full + 1):
        for b in range(full + 1):
            if t[a & b] != t[a] & t[b]:
                return False
    return True


def boxed_span_table(images, combine):
    t = [0] * (1 << len(images))
    for m in range(1, len(t)):
        t[m] = combine(t[m & (m - 1)], images[(m & -m).bit_length() - 1])
    return tuple(t)


def boxed_unital_reduction(phi):
    """The reduction of a non-unital map in ``analyze_map``: with u =
    phi(delta), None when u is not a unit, else psi = u^-1 phi, built
    column by column from the products u^-1 phi(e_k), and whether u^2 =
    delta."""
    poset, field = phi.poset, phi.field
    delta = FIElement.delta(poset, field)
    u = boxed_apply(phi, delta)
    if not u.is_unit():
        return None
    u_inv = boxed_inverse(u)
    psi = LinearMap.from_basis_images(poset, field, {
        pair: boxed_convolve(u_inv, FIElement(poset, field, column))
        for pair, column in zip(poset.basis_pairs, zip(*phi.rows))})
    return psi, boxed_convolve(u, u) == delta


def plain_record_json(record, field):
    """A census record as JSON, formatted where each entry is read:
    ``format_value`` per matrix entry, and ``endo_to_json`` and
    ``psi_to_json`` on the record's normal form."""
    return {
        "index": record.index,
        "matrix": [[field.format_value(v) for v in row] for row in record.matrix],
        "lambda": endo_to_json(record.spec.endo),
        "psi": psi_to_json(record.spec),
        "strong": record.strong,
        "bijective": record.bijective,
    }
