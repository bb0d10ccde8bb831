"""Per-server transmission schemes: synthesis, counting, decoding, verification.

A scheme sends partial products ("pieces"): each piece is a nonempty
set of datasets held by one server.  The user multiplies the pieces
assigned to a monomial and XORs across monomials, so correctness only
needs every monomial's support exactly partitioned by its pieces.
Identical (server, vars) pieces are transmitted once and reused.

The exact synthesizer minimizes the number of distinct pieces within
this class.  Server choice never affects the optimum (a var-set reused
on one server costs one piece; spread over two it costs two), so the
search runs over var-set partitions and servers are assigned afterwards
(lowest covering index, for determinism).  The search is a depth-first
branch-and-bound below the greedy scheme's count.  It starts from a
floor, the greatest of three lower bounds: the new-blocks bound (per
monomial, the blocks needed by its uncovered vars that no other
monomial holds, plus the most any one monomial needs beyond those, each
set of vars divided by the most of it one server holds), the rank over
GF(2) of the monomials (each is the XOR of its disjoint blocks, so the
distinct blocks span them all), and the size of a clique of (monomial,
var) items no two of which one block can cover.
If the floor reaches the greedy count, greedy is optimal and nothing is
searched.  Otherwise the search deepens one target t at a time from the
floor, stopping at the first leaf of at most t blocks, and prunes a node
once its used blocks plus the new-blocks bound or the clique (counted as
its items still uncovered) exceed t.  No bound overestimates, so the
scheme is the first leaf with the fewest blocks in a DFS order they do
not affect, or greedy when no leaf has fewer: they set the running
time, never the scheme.  A monomial's candidate blocks are built per
lowest var, the first time a node asks for that var.  Cost grows
exponentially with monomial degree; the degree limit is enforced, not
advisory.

The decoder is itself an XOR of monomials, one per plan row over the
union of that row's pieces, so verification toggles each row's monomial
in the set of f's: what is left, equal monomials cancelled, is the ANF
of f XOR the decoder.  ANF is unique, so the scheme decodes f exactly
when that set is empty.  Otherwise its least monomial m, read as an
input, is the lowest input where the two differ: a monomial inside an
input x is at most x, so none lies inside an input below m, and the
only one inside m is m itself, since m's other submasks are lower.
Nothing is evaluated, at any K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .anf import (
    MAX_DATASETS,
    BooleanFunctionANF,
    ParseError,
    _check_assignment,
    bits_from_assignment,
    dump_object,
    indices_from_mask,
    load_object,
    mask_from_indices,
)
from .placement import PlacementConfig

EXACT_SYNTHESIS_DEGREE_LIMIT = 16


class UncomputablePlacementError(ValueError):
    """No partial-product scheme exists: some needed dataset is on no server."""

    def __init__(self, monomial_indices: tuple[int, ...], missing: tuple[int, ...]):
        self.monomial_indices = monomial_indices
        self.missing = missing
        super().__init__(
            f"monomial W{'W'.join(map(str, monomial_indices))} is uncoverable:"
            f" dataset(s) {','.join(map(str, missing))} held by no server"
        )


class SynthesisLimitError(RuntimeError):
    """A monomial degree exceeds the exact-synthesis limit."""


_PRESENT_FIRST = str.maketrans("01", "10")


def _vars_key(mask: int) -> str:
    """Orders var masks as their ascending index tuples: the bits lowest
    first, a var in the mask as "0" and one outside it as "1".  Two keys
    first differ at the lowest var one mask has and the other lacks, and
    the mask that has it sorts first, as its tuple does; a key that is a
    prefix of another sorts first, as a prefix tuple does."""
    return bin(mask)[:1:-1].translate(_PRESENT_FIRST)


class Piece(NamedTuple):
    """One transmitted unit: a partial product of ``vars_mask`` sent by ``server``.

    A named tuple, so building and hashing one are tuple operations, and
    a piece equals the plain tuple ``(server, vars_mask)``.
    """

    server: int  # 1-based
    vars_mask: int

    def sort_key(self) -> tuple[int, str]:
        """Canonical order: by server, then vars as ascending index tuples."""
        return (self.server, _vars_key(self.vars_mask))


@dataclass(frozen=True)
class TransmissionScheme:
    """Pieces plus, per non-constant monomial of f (canonical order), the
    piece indices whose var sets partition that monomial's support.
    Refuses, with :class:`ParseError`, what no scheme file can hold."""

    pieces: tuple[Piece, ...]
    plan: tuple[tuple[int, ...], ...]
    constant: int = 0

    def __post_init__(self) -> None:
        past = 1 << MAX_DATASETS
        for server, v in self.pieces:
            if type(server) is not int or server < 1:
                raise ParseError(f"piece server must be a positive integer, got {server!r}")
            if type(v) is not int or not 0 < v < past:
                raise ParseError("piece with empty vars" if v == 0 else f"bad piece vars {v!r}")
        n = len(self.pieces)
        for refs in self.plan:
            for r in refs:
                if type(r) is not int or not 0 <= r < n:
                    raise ParseError(f"plan references unknown piece {r!r}")
        if type(self.constant) is not int or self.constant not in (0, 1):
            raise ParseError(f'"constant" must be 0 or 1, got {self.constant!r}')
        if len(set(self.pieces)) != n:
            raise ParseError("duplicate (server, vars) piece")

    def canonical(self) -> "TransmissionScheme":
        """Pieces sorted by (server, vars), plan indices remapped and ascending."""
        order = sorted(range(len(self.pieces)), key=lambda i: self.pieces[i].sort_key())
        remap = {old: new for new, old in enumerate(order)}
        return TransmissionScheme(
            pieces=tuple(self.pieces[i] for i in order),
            plan=tuple(tuple(sorted(remap[r] for r in refs)) for refs in self.plan),
            constant=self.constant,
        )


@dataclass(frozen=True)
class TransmissionCount:
    total: int
    per_server: tuple[int, ...]


def parse_scheme(text: str) -> TransmissionScheme:
    """Parse the JSON scheme format:
    {"pieces":[{"server":int,"vars":[int,...]},...], "plan":[[int,...],...], "constant":0|1}."""
    obj = load_object(text, "scheme", ("pieces", "plan", "constant"))
    pieces = []
    if not isinstance(obj["pieces"], list):
        raise ParseError('"pieces" must be an array')
    for entry in obj["pieces"]:
        if not isinstance(entry, dict) or "server" not in entry or "vars" not in entry:
            raise ParseError(f"bad piece entry {entry!r}")
        pieces.append(Piece(entry["server"], mask_from_indices(entry["vars"])))
    plan = obj["plan"]
    if not isinstance(plan, list) or any(not isinstance(row, list) for row in plan):
        raise ParseError('"plan" must be an array of arrays of piece indices')
    return TransmissionScheme(tuple(pieces), tuple(map(tuple, plan)), obj["constant"])


def scheme_to_json(s: TransmissionScheme) -> str:
    """Canonical serialization (pieces ordered by (server, vars))."""
    cs = s.canonical()
    obj = {
        "constant": cs.constant,
        "pieces": [
            {"server": p.server, "vars": list(indices_from_mask(p.vars_mask))}
            for p in cs.pieces
        ],
        "plan": [list(refs) for refs in cs.plan],
    }
    return dump_object(obj)


def scheme_structure_errors(
    s: TransmissionScheme, f: BooleanFunctionANF, p: PlacementConfig | None = None
) -> list[str]:
    """Structural invariant check: one plan row per non-constant monomial,
    each row's pieces pairwise disjoint and uniting to the monomial support,
    and every piece inside f's K datasets.  Given a placement, every other
    piece must also come from one of its N servers and use only datasets
    that server holds."""
    errors = []
    monomials = f.non_constant_monomials
    k = f.num_datasets
    if s.constant != f.constant_term:
        errors.append(f"constant term {s.constant} != function's {f.constant_term}")
    for piece in s.pieces:
        name = f"piece {indices_from_mask(piece.vars_mask)} on server {piece.server}"
        if piece.vars_mask >> k:
            past = indices_from_mask(piece.vars_mask >> k << k)
            errors.append(f"{name}: dataset(s) {past} past K={k}")
        elif p is None:
            continue
        elif piece.server > p.num_servers:
            errors.append(f"{name}: no such server among N={p.num_servers}")
        elif missing := piece.vars_mask & ~p.subset_masks[piece.server - 1]:
            errors.append(f"{name}: server does not hold {indices_from_mask(missing)}")
    if len(s.plan) != len(monomials):
        errors.append(f"plan has {len(s.plan)} rows for {len(monomials)} monomials")
        return errors
    for row, (refs, monomial) in enumerate(zip(s.plan, monomials)):
        seen = 0
        for r in refs:
            v = s.pieces[r].vars_mask
            if seen & v:
                errors.append(f"plan row {row}: overlapping pieces")
            seen |= v
        if seen != monomial:
            errors.append(
                f"plan row {row}: pieces cover {indices_from_mask(seen)}"
                f" instead of {indices_from_mask(monomial)}"
            )
    return errors


def _blocks_with_lowest(monomial: int, low: int, servers: Iterable[int]) -> list[int]:
    """The sub-products of the monomial whose lowest var is ``low`` and that
    fit on one server: widest first, then in variable order.

    Each is ``low`` joined with a submask of what a server holding ``low``
    has of the monomial above it.
    """
    above = monomial & -(low << 1)
    blocks = set()
    for held in {above & s for s in servers if s & low}:
        sub = held
        while True:
            blocks.add(sub | low)
            if not sub:
                break
            sub = (sub - 1) & held
    # bin(b)[:1:-1] lists b's bits lowest first.  Two blocks of one width
    # first differ at the lowest var only one holds, and the one holding
    # it comes first in variable order, so a descending sort on the
    # reversed bits is that order without building index tuples.
    ordered = sorted([(b.bit_count(), bin(b)[:1:-1], b) for b in blocks], reverse=True)
    return [b for _, _, b in ordered]


def _greedy_partitions(
    monomials: Sequence[int], subset_masks: Sequence[int]
) -> list[list[int]]:
    """Largest-held-block partition per monomial.

    Each server offers the remaining vars it holds; the largest offer
    wins, ties going to the lowest server index.  Always valid for a
    computable placement; may use more distinct blocks than the exact search.
    This is where coverage is decided: a monomial stops only when no
    server holds any var left, so the vars left are exactly those no
    server holds, and the first such monomial raises
    :class:`UncomputablePlacementError` naming them.
    """
    chosen: list[list[int]] = []
    for monomial in monomials:
        blocks = []
        remaining = monomial
        while remaining:
            block = 0
            for s in subset_masks:
                if (cand := remaining & s).bit_count() > block.bit_count():
                    block = cand
            if not block:
                raise UncomputablePlacementError(
                    indices_from_mask(monomial), indices_from_mask(remaining)
                )
            blocks.append(block)
            remaining &= ~block
        chosen.append(blocks)
    return chosen


def _new_blocks_bound(
    uncovered: Iterable[int], shared: int, width: Callable[[int], int]
) -> int:
    """Fewest new blocks that partitioning what is left of each monomial must add.

    Per monomial j, R_j is what is left of it, and ``uncovered`` holds
    U_j, the vars of R_j that no used block inside R_j covers.
    ``shared`` holds the vars in two or more R_j, and P_j is U_j less
    those.  ``width(v)`` is the most vars of v that one server holds; it
    may be any lookup that gives that, such as a memo's ``__getitem__``.
    A block that covers a var of U_j is new and lies inside R_j and on
    one server, so it covers at most width(U_j) vars of U_j: R_j needs
    u_j = ceil(|U_j|/width(U_j)) new blocks, at least p_j =
    ceil(|P_j|/width(P_j)) of them holding a var of P_j.  Such a block
    fits in no other R_j', so the blocks counted by different p_j are
    distinct, and for any one j those of every other P_j' are distinct
    from R_j's.  Hence the bound, sum_j p_j + max(0, max_j (u_j - p_j)),
    never overestimates.  No set is wider than its monomial's widest
    coverable block, so it is never below the same sum with that fixed
    width in place of width(U_j) and width(P_j).
    """
    total = extra = 0
    for u in uncovered:
        p = u & ~shared
        private = -(-p.bit_count() // width(p)) if p else 0
        total += private
        if u != p:
            extra = max(extra, -(-u.bit_count() // width(u)) - private)
    return total + extra


def _rank2(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of bitmask vectors.

    Each basis vector was reduced by the ones before it, so it lacks
    their top bits.  Reducing v by the basis in order thus clears every
    basis top bit from v for good: what is left is 0 exactly when the
    basis spans v, and otherwise has a top bit no basis vector has.
    """
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


class _Widths(dict):
    """Memo of the most vars of a set that one of ``servers`` holds."""

    def __init__(self, servers: Sequence[int]):
        super().__init__()
        self.servers = servers

    def __missing__(self, v: int) -> int:
        w = self[v] = max([(v & s).bit_count() for s in self.servers])
        return w


def _clique(monomials: Sequence[int], servers: Sequence[int]) -> list[int]:
    """Per monomial j, the vars v of a set C of items (j, v), v in monomial
    j, no two of which one block can cover: each needs a block of its own.

    A block that covers (j, v) holds v, lies on one server and inside
    monomial j, and inside every other monomial it is reused for.  So
    (j, v) and (j', w) are compatible, one block covering both, when some
    server holds both and, for j != j', both lie in both monomials; v = w
    is always compatible, so no var is in C twice.  The items compatible
    with (j, v) are, in each monomial j' holding v, the vars of j' in
    ``cut``, what of monomial j the servers holding v hold.  C is built
    greedily: items with the fewest compatible items first, each taken
    while it is incompatible with every item taken before it.
    """
    held: dict[int, int] = {}  # per var, every var some server holds with it
    for s in servers:
        rest = s
        while rest:
            v = rest & -rest
            rest ^= v
            held[v] = held.get(v, 0) | s
    items = []
    for j, m in enumerate(monomials):
        rest = m
        while rest:
            v = rest & -rest
            rest ^= v
            cut = m & held[v]
            items.append((sum([(m2 & cut).bit_count() for m2 in monomials if m2 & v]), j, v))
    items.sort()
    candidates = list(monomials)
    clique = [0] * len(monomials)
    for _, j, v in items:
        if candidates[j] & v:
            clique[j] |= v
            cut = monomials[j] & held[v]
            candidates = [c & ~cut if m & v else c for c, m in zip(candidates, monomials)]
    return clique


class _Leaf(Exception):
    """Ends a search at its first leaf."""


def _search_min_distinct(
    monomials: Sequence[int],
    subset_masks: Sequence[int],
    init: list[list[int]],
) -> list[list[int]]:
    """Exact branch-and-bound over per-monomial partitions.

    Minimizes the number of distinct var-set blocks across monomials;
    the greedy ``init`` is returned unless a search finds fewer.  Each
    node places the lowest var of the current monomial's uncovered part:
    reusable blocks first, then new ones, each widest first and then in
    variable order.  Each (monomial, lowest var) list is built by
    ``_blocks_with_lowest`` the first time a node reads it, so vars no
    node places cost nothing.

    Two lower bounds on the new blocks still needed prune a node once
    the blocks used plus either reaches the count a leaf must stay
    under.  ``_new_blocks_bound`` takes what is left of the current
    monomial and the later monomials, each less the vars that used
    blocks inside it cover, and divides each set by the most of it one
    server holds.  The pending items are those of the clique C (see
    ``_clique``) whose var is still uncovered in the current or a later
    monomial: each needs a new block, and no two share one.  At the
    root, with nothing used, the floor is the greatest of
    ``_new_blocks_bound``, the GF(2) rank of the monomials (a monomial
    is the XOR of its disjoint blocks, so the distinct blocks span every
    monomial; see ``_rank2``) and |C| (C is built only when the first
    two fall short of the greedy count); if it reaches the greedy count,
    greedy is optimal and nothing is searched.  Otherwise the search
    deepens from the floor: for t = floor, floor + 1, ..., one below
    greedy, a DFS admits only leaves of at most t blocks and stops at
    its first leaf.

    The scheme returned is the first leaf in DFS order with the fewest
    blocks, or greedy when no leaf has fewer, whatever any bound
    gives.  No t below the optimum admits a leaf, and at the optimum
    neither bound prunes a node on the path to that first leaf: its
    used blocks plus either bound is at most the optimum there, below
    t + 1.  The bounds only set how much is searched, and a search that
    started from the greedy count and kept each strictly better leaf
    returns the same blocks.  A node tries no new block once one would
    reach t + 1, and where one more new block already reaches it, the
    node prunes as soon as any var is uncovered, without the bounds:
    they are at least 1 exactly then.
    """
    greedy_count = len({b for blocks in init for b in blocks})
    n = len(monomials)
    if not n:
        return init
    servers = list(dict.fromkeys(subset_masks))

    width = _Widths(servers).__getitem__  # the same sets recur at many nodes
    # Vars in at least one / at least two of monomials[i + 1 :].
    once_after, twice_after = [0] * n, [0] * n
    for i in range(n - 2, -1, -1):
        m = monomials[i + 1]
        twice_after[i] = twice_after[i + 1] | (once_after[i + 1] & m)
        once_after[i] = once_after[i + 1] | m
    shared = twice_after[0] | (monomials[0] & once_after[0])
    floor = max(_new_blocks_bound(monomials, shared, width), _rank2(monomials))
    if floor >= greedy_count:
        return init
    clique = _clique(monomials, servers)
    floor = max(floor, sum([c.bit_count() for c in clique]))
    if floor >= greedy_count:
        return init
    path: list[list[int]] = [[] for _ in range(n)]
    # Per monomial, its blocks by lowest var, each list built on first read.
    by_low: list[dict[int, list[int]]] = [{} for _ in range(n)]
    uncovered = list(monomials)  # U_j of each monomial past the current one
    limit = 0  # the count a leaf must stay under

    def go(i: int, remaining: int, used: set[int]) -> None:
        if remaining == 0:
            if i + 1 == n:
                raise _Leaf
            go(i + 1, monomials[i + 1], used)
            return
        here = 0
        for b in used:
            if b & ~remaining == 0:
                here |= b
        count = len(used)
        if count + 1 >= limit:
            # The bounds would prune here: they are at least 1 exactly
            # when some var is uncovered.
            if count >= limit or remaining & ~here or any(uncovered[i + 1 :]):
                return
        else:
            left = remaining & ~here
            pending = (left & clique[i]).bit_count()
            for j in range(i + 1, n):
                pending += (uncovered[j] & clique[j]).bit_count()
            if count + pending >= limit:
                return
            shared = twice_after[i] | (remaining & once_after[i])
            if count + _new_blocks_bound((left, *uncovered[i + 1 :]), shared, width) >= limit:
                return
        low = remaining & -remaining
        fits = by_low[i].get(low)
        if fits is None:
            fits = by_low[i][low] = _blocks_with_lowest(monomials[i], low, servers)
        reuse: list[int] = []
        new: list[int] = []
        for b in fits:
            if b & ~remaining == 0:
                (reuse if b in used else new).append(b)
        blocks = path[i]
        for block in reuse:
            blocks.append(block)
            go(i, remaining & ~block, used)
            blocks.pop()
        if count + 1 >= limit:
            return  # a new block would reach the limit
        for block in new:
            used.add(block)
            saved = uncovered[i + 1 :]
            for j in range(i + 1, n):
                if block & ~monomials[j] == 0:
                    uncovered[j] &= ~block
            blocks.append(block)
            go(i, remaining & ~block, used)
            blocks.pop()
            used.remove(block)
            uncovered[i + 1 :] = saved

    try:
        for target in range(floor, greedy_count):
            limit = target + 1
            go(0, monomials[0], set())
        return init
    except _Leaf:
        return path  # the blocks of the leaf, left in place
    finally:
        del go  # go's closure holds go: clearing it lets refcounting free the search


def _scheme_from_blocks(
    f: BooleanFunctionANF,
    p: PlacementConfig,
    per_monomial_blocks: list[list[int]],
) -> TransmissionScheme:
    """Assign each distinct block the lowest covering server and build the
    scheme in canonical order (see :meth:`TransmissionScheme.canonical`)."""
    rows = []
    for b in {b for blocks in per_monomial_blocks for b in blocks}:
        server = 1
        for held in p.subset_masks:
            if b & ~held == 0:
                break
            server += 1
        rows.append((server, _vars_key(b), b))
    # Piece(server, b).sort_key() order: the keys are distinct, so b never
    # decides.  Sorting rows costs less than a key function per piece.
    rows.sort()
    pieces = []
    index_of = {}
    for server, _, b in rows:
        index_of[b] = len(pieces)
        pieces.append(Piece(server, b))
    plan = tuple(
        [tuple(sorted([index_of[b] for b in blocks])) for blocks in per_monomial_blocks]
    )
    return TransmissionScheme(tuple(pieces), plan, f.constant_term)


def synthesize_greedy(
    f: BooleanFunctionANF, p: PlacementConfig
) -> TransmissionScheme:
    """Fast heuristic scheme; valid whenever the placement is computable,
    never fewer pieces than the exact synthesizer."""
    blocks = _greedy_partitions(f.non_constant_monomials, p.subset_masks)
    return _scheme_from_blocks(f, p, blocks)


def synthesize_exact(f: BooleanFunctionANF, p: PlacementConfig) -> TransmissionScheme:
    """Minimum-piece scheme within the partial-product class (see module doc)."""
    monomials = f.non_constant_monomials
    # Greedy first: an uncoverable placement is reported ahead of the limit.
    greedy = _greedy_partitions(monomials, p.subset_masks)
    for m in monomials:
        if m.bit_count() > EXACT_SYNTHESIS_DEGREE_LIMIT:
            raise SynthesisLimitError(
                f"monomial degree {m.bit_count()} exceeds the exact-synthesis"
                f" limit {EXACT_SYNTHESIS_DEGREE_LIMIT}"
            )
    best = _search_min_distinct(monomials, p.subset_masks, greedy)
    return _scheme_from_blocks(f, p, best)


def synthesis_key(f: BooleanFunctionANF, subset_masks: Iterable[int]) -> tuple[int, ...]:
    """Each server's datasets of f, in server order: all of a placement
    that synthesis reads.

    Both synthesizers and the lowest-server assignment in
    :func:`_scheme_from_blocks` read a server's subset s only as
    ``monomial & s`` or ``block & ~s``, and every monomial and block lies
    inside f's support, so placements with one key get the same schemes.
    The key keeps server order: greedy breaks ties toward the lowest
    server, and each piece goes to the lowest server that holds it.
    """
    support = f.support_mask
    return tuple(s & support for s in subset_masks)


def count_transmissions(
    s: TransmissionScheme, num_servers: int | None = None
) -> TransmissionCount:
    """Total distinct pieces and the per-server breakdown.

    ``num_servers`` extends the per-server list with silent servers; by
    default the highest transmitting server index is used.
    """
    highest = max((p.server for p in s.pieces), default=0)
    n = highest if num_servers is None else num_servers
    if n < highest:
        raise ValueError(f"num_servers={n} below highest piece server {highest}")
    per = [0] * n
    for p in s.pieces:
        per[p.server - 1] += 1
    return TransmissionCount(total=len(s.pieces), per_server=tuple(per))


def _check_decodable(s: TransmissionScheme, f: BooleanFunctionANF) -> None:
    """Raise ValueError unless ``s`` has one plan row per non-constant
    monomial of f and every piece inside f's K datasets."""
    if len(s.plan) != len(f.non_constant_monomials):
        raise ValueError(
            f"plan has {len(s.plan)} rows for {len(f.non_constant_monomials)} monomials"
        )
    k = f.num_datasets
    for piece in s.pieces:
        if piece.vars_mask >> k:
            raise ValueError(
                f"piece {indices_from_mask(piece.vars_mask)} has a dataset past K={k}"
            )


def decode(s: TransmissionScheme, f: BooleanFunctionANF, assignment: int) -> int:
    """User-side decoding from piece values only: per monomial multiply its
    pieces, XOR across monomials, XOR the constant term.  Raises
    ValueError on a scheme that :func:`verify_scheme` refuses and on an
    assignment that does not fit K datasets."""
    _check_decodable(s, f)
    _check_assignment(f, assignment)
    piece_values = [
        1 if assignment & p.vars_mask == p.vars_mask else 0 for p in s.pieces
    ]
    out = s.constant
    for refs in s.plan:
        prod = 1
        for r in refs:
            prod &= piece_values[r]
        out ^= prod
    return out


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    inputs_checked: int
    counterexample: int | None
    mode = "exhaustive"  # every input is decided; not a field

    def counterexample_bits(self, num_datasets: int) -> str | None:
        if self.counterexample is None:
            return None
        return bits_from_assignment(self.counterexample, num_datasets)


def verify_scheme(s: TransmissionScheme, f: BooleanFunctionANF) -> VerifyResult:
    """Check decode == evaluate on all 2^K inputs, at any K.  The scheme
    passes exactly when the ANF of f XOR the decoder is empty; otherwise
    the counterexample is the lowest failing input, that ANF's least
    monomial (see module doc).  Raises ValueError, before decoding, on a
    plan row count other than f's non-constant monomial count or on a
    piece with a dataset past K.
    """
    _check_decodable(s, f)
    rows = [0] * s.constant  # the constant term is the empty monomial
    for refs in s.plan:
        row = 0
        for r in refs:
            row |= s.pieces[r].vars_mask
        rows.append(row)
    odd = set(f.monomials)  # toggled into the monomials of f XOR the decoder
    for row in rows:
        if row in odd:
            odd.remove(row)
        else:
            odd.add(row)
    counter = min(odd, default=None)
    return VerifyResult(counter is None, 1 << f.num_datasets, counter)
