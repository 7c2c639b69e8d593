"""The package's size limits, each documented with what it bounds, where it
is checked and what it costs, and require, the one check that enforces them
before any work by raising BudgetError, a ValueError naming the budget."""

BERNOULLI_BUDGET = 500
"""The largest Bernoulli index the package computes.  The recurrence is
quadratic in the index and its numbers grow too; summed as integers over one
denominator, B_500 from an empty table takes about 0.06 s on a 2-vCPU x86
host (1.6 s with one Fraction add per term), B_1000 about 0.5 s.  An index over
the budget is refused before the recurrence starts (bernoulli_number) and
before a piece denominator reads the indices up to it (_piece_denominator);
the routines whose factorials, binomials or lcm(1..g+1) would run ahead of
those (the two-factor sums, both sides of the product integral and the
frames) check the largest index they read first."""

TABLE_BUDGET = 10 ** 7
"""The largest degree n times entry count q of a bernoulli._periodic_table,
refused there before the table is built: each entry has about n log q
digits.  raabe's literal sum of c values of degree p + 1 is refused at the
same (p + 1) c before its first term.  At the budget, n = 10 and q = 10^6
takes 0.5 s and 104 MB of peak RSS on a 2-vCPU x86 host, n = 499 and
q = 20040 takes 4.7 s and 49 MB; n = 199 and q = 200000, four times over,
took 9 s and 153 MB."""

CUT_BUDGET = 100_000
"""The most breakpoints one product-integral frame may walk: family i's
cuts, over every term of every key, once per tuple of the other families'
keys (bernoulli._frame_cuts, one division per term).  A frame builds a piece
per cut, and its integers grow with the cut numerators: on a 2-vCPU x86
host, a further-eq20 point at modulus 5, p = 3 and c = 24,998 walks 100,000
cuts in about 1.0 s, one at modulus 7 (nine key tuples), p = 5 and
c = 4,000 walks 72,018 in 0.5 s, and further-bc1 at modulus 997 cuts at
1,992 points but walks 992,016.  A frame over the budget is refused in
bernoulli._product_integral_numerators before any piece is built."""

SUM_BUDGET = 10 ** 6
"""The most terms one direct sum may add, and the most entries of a
_periodic_table it may build.  A character sum's terms are its rows times
the units of the character whose twisted function it expands, since
dedekind._twisted_sum reads one table value per (row, unit).  Both are
checked before any table is built (in dedekind, and in verify's raabe and
em-theorem sums): the tables are cached for the life of the process, and a
sum's time grows with its terms.  `dedsums sum --family char_pair --p 2 --b 1
--c 1 --char1 997:1 --char2 997:1`, 997 rows of 996 units (993,012 terms),
takes 0.075 to 0.11 s with its tables cached, about 0.08 us a term (0.10
to 0.11 s with the units of 997:1 read one at a time, not in pairs), 0.3 to
0.47 s with them built first, and 0.6 to 0.76 s as a whole command, on a
2-vCPU x86 host.
Counting rows alone admitted c up to 1003 there: about 10^9 terms, 220 s."""


MODULUS_BUDGET = 1000
"""The largest character modulus.  Every character mod k builds a phase
table of k entries, and a listing of all phi(k) characters builds them all:
`dedsums char list --modulus 1000` takes about 0.7 s on a 2-vCPU x86 host,
and the work grows as k * phi(k).  A modulus over the budget is refused in
dirichlet._unit_group, which every character and every enumeration reads
first, before any table of that modulus is built."""

GRID_BUDGET = 250_000
"""The most points one sweep grid may hold.  Every grid builder yields its
points, and verify.default_grid, the one place that lists a grid, refuses
one that yields a point more.  Before the first point, verify._bc_pairs
refuses bc_max squared (b, c) pairs, and int-32-oracle and int-17 their
count plus their two fixed points.  A grid is listed before any point is
checked, and each point is a dict.  At the budget, on a 2-vCPU x86 host,
the rp1 grid at ks = (5, 7), bc_max = 38 and coprime = False (245,480
points) builds in 0.16 s and 65 MB of peak RSS, and int-32-oracle at
count = 249,998 in 4.6 s and 204 MB.  The benchmark's two charsum-wide
pools are 153,000 points each."""

TERM_BUDGET = 5_000
"""The most periods of `laplace.periodic_laplace_numeric`, blocks of
`product_laplace_numeric`, terms of one derivative series of
`product_laplace_closed`, or unit residues times n + 1 of
`char_laplace_numeric`, that one transform may sum.  The counts grow like
t/s or 1/s, so a small s is refused before the first block.  A product
transform's count is weighted by its working digits over the default 35,
since each block or term costs more at more digits: in fresh processes on a
2-vCPU x86 host, laplace-product at (m, n, s) = (50, 50, 0.3) counts 2,401
terms at 230 digits, weighted 15,780, and took 18.8 s before it was refused;
(50, 50, 1) counts 590 at 177 digits, weighted 2,981, and takes 3.8 s."""

DEGREE_BUDGET = 50
"""The largest degree m or n that a Laplace transform takes.  Up to it every
float the transforms form stays far inside the float range: the amplitude
bound sum |c_i| of B_n is about 10^27 at n = 50 and passes 10^308 near
n = 258, and the block sum's tail bound amp(B_m) (j+2)^m amp(B_n) stays
below 10^240 for m, n <= 50 over TERM_BUDGET blocks.  A larger degree is
refused in laplace._gate before any float is formed."""

SERIES_TERM_BUDGET = 200
"""The most terms of `laplace.periodic_laplace_series`, whose cost grows
faster than the cube of the count: from cold caches 200 terms take about
0.9 s and 400 about 9 s (2-vCPU x86 host)."""

INT_23_DEGREE_BUDGET = 40
"""The largest degree p of int-23, refused before any polynomial is built:
the check builds both sides at p + 2 values of y, and p = 40 takes 1.3 s on
a 2-vCPU x86 host, p = 80 about 6 s."""


class BudgetError(ValueError):
    """An input over the budget `name`, asking for `amount` against `limit`;
    it pickles with all three, so a pool worker's refusal reaches the parent."""

    def __init__(self, message: str, name: str, amount, limit):
        super().__init__(message)
        self.name, self.amount, self.limit = name, amount, limit

    def __reduce__(self):
        return type(self), (self.args[0], self.name, self.amount, self.limit)


def require(name: str, amount, what: str) -> None:
    """Raise BudgetError "{what} is over {name} = {limit}" when amount passes
    the budget called name.  A {} in what is filled with the amount, so a
    caller on a hot path builds no string unless it is refused."""
    limit = globals()[name]
    if amount > limit:
        raise BudgetError(f"{what.format(amount)} is over {name} = {limit}", name, amount, limit)
