"""A synthetic, deterministic TPCH-like workload.

The paper's large-scale experiments join all TPC-H tables into a single
wide relation of up to 10M tuples (10GB) hosted on EC2.  This generator
produces a structurally equivalent denormalised table: every row mixes
customer, part, supplier and lineitem attributes, a family of functional
dependencies holds on clean data by construction (e.g. nation determines
region, part name determines brand), and a configurable fraction of rows
carries injected errors that turn into CFD violations.  Scaling is
linear in the requested number of rows and fully reproducible from the
seed, so the experiment harness can sweep |D| and |delta-D| exactly as
the paper does — only at laptop scale.
"""

from __future__ import annotations

import random

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple, tuple_factory
from repro.partition.horizontal import HorizontalPartitioner, hash_horizontal_scheme
from repro.partition.vertical import VerticalPartitioner, even_vertical_scheme
from repro.workloads.rules import FDSpec

_NATIONS = [
    ("ALGERIA", "AFRICA"), ("ARGENTINA", "AMERICA"), ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"), ("EGYPT", "MIDDLE EAST"), ("ETHIOPIA", "AFRICA"),
    ("FRANCE", "EUROPE"), ("GERMANY", "EUROPE"), ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"), ("IRAN", "MIDDLE EAST"), ("IRAQ", "MIDDLE EAST"),
    ("JAPAN", "ASIA"), ("JORDAN", "MIDDLE EAST"), ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"), ("MOZAMBIQUE", "AFRICA"), ("PERU", "AMERICA"),
    ("CHINA", "ASIA"), ("ROMANIA", "EUROPE"), ("SAUDI ARABIA", "MIDDLE EAST"),
    ("VIETNAM", "ASIA"), ("RUSSIA", "EUROPE"), ("UNITED KINGDOM", "EUROPE"),
    ("UNITED STATES", "AMERICA"),
]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
_INSTRUCTIONS = [
    "DELIVER IN PERSON", "COLLECT COD", "TAKE BACK RETURN", "NONE",
    "LEAVE AT DOOR", "SIGNATURE REQUIRED", "HOLD AT DEPOT",
]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_STATUSES = ["O", "F", "P"]
_RETURNFLAGS = ["N", "R", "A"]
_TAXCODES = [f"TAX-{chr(ord('A') + i)}" for i in range(12)]
_SHIPBANDS = ["LOCAL", "REGIONAL", "CONTINENTAL", "OVERSEAS", "EXPRESS"]
#: What an injected error may write into each corruptible attribute.
_DOMAINS = {
    "cnation": [n for n, _ in _NATIONS], "cregion": sorted({r for _, r in _NATIONS}),
    "csegment": _SEGMENTS, "pbrand": _BRANDS, "ptype": _TYPES,
    "snation": [n for n, _ in _NATIONS], "sregion": sorted({r for _, r in _NATIONS}),
    "shipinstruct": _INSTRUCTIONS, "returnflag": _RETURNFLAGS,
    "taxcode": _TAXCODES, "shipband": _SHIPBANDS,
}


class TPCHGenerator:
    """Deterministic generator for the denormalised TPCH-like relation."""

    #: Attributes a CFD's error can be injected into (the RHS of some embedded FD).
    _CORRUPTIBLE = [
        "cnation", "cregion", "csegment", "pbrand", "ptype",
        "snation", "sregion", "shipinstruct", "returnflag", "taxcode", "shipband",
    ]

    def __init__(
        self,
        seed: int = 7,
        n_customers: int = 200,
        n_parts: int = 150,
        n_suppliers: int = 60,
        error_rate: float = 0.05,
    ):
        self.seed = seed
        self.n_customers = n_customers
        self.n_parts = n_parts
        self.n_suppliers = n_suppliers
        self.error_rate = error_rate
        # Memos of the pure mappings below.  ``_picked`` is keyed by the
        # option list's id; each entry holds its list, so the id stays taken.
        self._picked: dict[int, tuple[list, dict[str, object]]] = {}
        self._customers: dict[int, tuple[str, str, str, str]] = {}
        self._parts: dict[int, tuple[str, str, str]] = {}
        self._suppliers: dict[int, tuple[str, str, str]] = {}
        self._dates: dict[tuple[int, int, int], str] = {}
        self.schema = Schema(
            "TPCH",
            [
                "okey", "cname", "cnation", "cregion", "csegment",
                "pname", "pbrand", "ptype",
                "sname", "snation", "sregion",
                "shipmode", "shipinstruct", "linestatus", "returnflag",
                "opriority", "taxcode", "shipband",
                "quantity", "price", "discount", "odate",
            ],
            key="okey",
        )

    # -- deterministic clean mappings (these are the embedded FDs) ----------------------
    #
    # Each mapping is a pure function of its arguments, so it is memoised:
    # a row costs dictionary probes instead of string hashing, and equal
    # values are one shared string instead of one fresh copy per row.

    def _pick(self, options: list, key: str) -> object:
        entry = self._picked.get(id(options))
        if entry is None:
            entry = self._picked[id(options)] = (options, {})
        memo = entry[1]
        try:
            return memo[key]
        except KeyError:
            acc = 0
            for ch in key:
                acc = (acc * 1313 + ord(ch)) & 0x7FFFFFFF
            picked = memo[key] = options[acc % len(options)]
            return picked

    def _customer(self, index: int) -> tuple[str, str, str, str]:
        """``(cname, cnation, cregion, csegment)`` of customer ``index``."""
        row = self._customers.get(index)
        if row is None:
            name = f"Customer#{index:05d}"
            nation, region = self._pick(_NATIONS, name)
            row = self._customers[index] = (
                name, nation, region, self._pick(_SEGMENTS, name + "seg"),
            )
        return row

    def _part(self, index: int) -> tuple[str, str, str]:
        """``(pname, pbrand, ptype)`` of part ``index``."""
        row = self._parts.get(index)
        if row is None:
            name = f"Part#{index:05d}"
            brand = self._pick(_BRANDS, name)
            row = self._parts[index] = (name, brand, self._pick(_TYPES, str(brand)))
        return row

    def _supplier(self, index: int) -> tuple[str, str, str]:
        """``(sname, snation, sregion)`` of supplier ``index``."""
        row = self._suppliers.get(index)
        if row is None:
            name = f"Supplier#{index:04d}"
            nation, region = self._pick(_NATIONS, name + "sup")
            row = self._suppliers[index] = (name, nation, region)
        return row

    def _date(self, year: int, month: int, day: int) -> str:
        key = (year, month, day)
        date = self._dates.get(key)
        if date is None:
            date = self._dates[key] = f"{year}-{month:02d}-{day:02d}"
        return date

    def _clean_row(self, tid: int, rng: random.Random) -> list:
        """The row's values in schema order.

        The order of the ``rng`` draws is part of the output: reordering
        them changes every generated relation.
        """
        pick = self._pick
        customer = self._customer(rng.randrange(self.n_customers))
        part = self._part(rng.randrange(self.n_parts))
        supplier = self._supplier(rng.randrange(self.n_suppliers))
        shipmode = rng.choice(_SHIPMODES)
        linestatus = rng.choice(_STATUSES)
        return [
            tid,
            *customer,
            *part,
            *supplier,
            shipmode,
            pick(_INSTRUCTIONS, shipmode),
            linestatus,
            pick(_RETURNFLAGS, linestatus),
            rng.choice(_PRIORITIES),
            pick(_TAXCODES, customer[1] + customer[3]),
            pick(_SHIPBANDS, supplier[1] + shipmode),
            rng.randint(1, 50),
            round(rng.uniform(900.0, 105000.0), 2),
            round(rng.uniform(0.0, 0.1), 2),
            self._date(rng.randint(1992, 1998), rng.randint(1, 12), rng.randint(1, 28)),
        ]

    def _inject_error(self, row: list, rng: random.Random) -> None:
        attribute = rng.choice(self._CORRUPTIBLE)
        position = self.schema.position(attribute)
        domain = _DOMAINS[attribute]
        wrong = rng.choice(domain)
        if wrong == row[position]:
            wrong = domain[(domain.index(wrong) + 1) % len(domain)]
        row[position] = wrong

    # -- public generation API ------------------------------------------------------------

    def tuples(self, start_tid: int, count: int) -> list[Tuple]:
        """Generate ``count`` tuples with tids ``start_tid .. start_tid + count - 1``.

        Every tuple is a deterministic function of (seed, tid), so update
        streams can extend a relation without regenerating it.  The clean
        mappings (customer/part/supplier rows, the hashed picks, the date
        strings) are memoised per generator, so tuples generated later
        share their equal strings with the earlier ones.
        """
        make = tuple_factory(self.schema.attribute_names)
        out = []
        for tid in range(start_tid, start_tid + count):
            rng = random.Random(f"{self.seed}:{tid}")
            row = self._clean_row(tid, rng)
            if rng.random() < self.error_rate:
                self._inject_error(row, rng)
            out.append(make(tid, tuple(row)))
        return out

    def relation(self, n_tuples: int) -> Relation:
        """The base relation ``D`` with tids ``1 .. n_tuples``."""
        return Relation(self.schema, self.tuples(1, n_tuples))

    # -- embedded dependencies ------------------------------------------------------------------

    def fd_specs(self) -> list[FDSpec]:
        """The functional dependencies that hold on clean data by construction."""
        nations = [n for n, _ in _NATIONS]
        nation_region = [({"cnation": n}, r) for n, r in _NATIONS]
        snation_region = [({"snation": n}, r) for n, r in _NATIONS]
        shipmode_pairs = [
            ({"shipmode": m}, self._pick(_INSTRUCTIONS, m)) for m in _SHIPMODES
        ]
        status_pairs = [({"linestatus": s}, self._pick(_RETURNFLAGS, s)) for s in _STATUSES]
        return [
            FDSpec.build(["cname"], "cnation", {"cname": [f"Customer#{i:05d}" for i in range(20)]}),
            FDSpec.build(["cnation"], "cregion", {"cnation": nations}, nation_region),
            FDSpec.build(["cname"], "csegment", {"cname": [f"Customer#{i:05d}" for i in range(20)]}),
            FDSpec.build(["pname"], "pbrand", {"pname": [f"Part#{i:05d}" for i in range(20)]}),
            FDSpec.build(["pbrand"], "ptype", {"pbrand": _BRANDS}),
            FDSpec.build(["sname"], "snation", {"sname": [f"Supplier#{i:04d}" for i in range(20)]}),
            FDSpec.build(["snation"], "sregion", {"snation": nations}, snation_region),
            FDSpec.build(["shipmode"], "shipinstruct", {"shipmode": _SHIPMODES}, shipmode_pairs),
            FDSpec.build(["linestatus"], "returnflag", {"linestatus": _STATUSES}, status_pairs),
            FDSpec.build(
                ["cnation", "csegment"], "taxcode",
                {"cnation": nations, "csegment": _SEGMENTS},
            ),
            FDSpec.build(
                ["snation", "shipmode"], "shipband",
                {"snation": nations, "shipmode": _SHIPMODES},
            ),
            # FDs with redundant LHS attributes still hold on clean data; they are
            # included because multi-attribute LHSs with shared prefixes are what
            # the eqid-shipment optimizer of Section 5 exploits.
            FDSpec.build(
                ["cnation", "csegment", "shipmode"], "taxcode",
                {"cnation": nations, "csegment": _SEGMENTS, "shipmode": _SHIPMODES},
            ),
            FDSpec.build(
                ["snation", "shipmode", "linestatus"], "shipband",
                {"snation": nations, "shipmode": _SHIPMODES, "linestatus": _STATUSES},
            ),
            FDSpec.build(
                ["cnation", "csegment", "linestatus"], "taxcode",
                {"cnation": nations, "csegment": _SEGMENTS, "linestatus": _STATUSES},
            ),
            FDSpec.build(
                ["cname", "shipmode"], "csegment",
                {"cname": [f"Customer#{i:05d}" for i in range(20)], "shipmode": _SHIPMODES},
            ),
        ]

    # -- default partition schemes ------------------------------------------------------------------

    def vertical_partitioner(self, n_fragments: int = 10) -> VerticalPartitioner:
        """Spread the non-key attributes evenly over ``n_fragments`` sites."""
        return even_vertical_scheme(self.schema, n_fragments)

    def horizontal_partitioner(self, n_fragments: int = 10) -> HorizontalPartitioner:
        """Hash-partition rows over ``n_fragments`` sites by the order key."""
        return hash_horizontal_scheme(self.schema, n_fragments)
