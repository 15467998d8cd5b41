#!/usr/bin/env python3
"""Beyond equality: auditing a customer file with matching dependencies.

The paper's conclusion points to constraints "defined in terms of
similarity predicates (e.g., matching dependencies for record matching)
beyond equality comparison" as future work.  This example exercises that
extension: a customer master file is audited with matching dependencies
(MDs) whose left-hand sides use approximate comparison — normalized
names, phone numbers within a small tolerance — and whose right-hand
sides demand agreement.  Violations are pairs of records that look like
the same customer but carry contradictory data.

The audit then keeps running incrementally as records are added and
purged, with the blocking index restricting each update to a handful of
candidate comparisons.

Run with:  python examples/record_matching_audit.py
"""

from repro import Relation, Schema, Tuple, Update, UpdateBatch, session
from repro.similarity import (
    EditDistanceSimilarity,
    MatchingDependency,
    NormalizedStringMatch,
    NumericTolerance,
    detect_md_violations,
)

SCHEMA = Schema(
    "CUSTOMER",
    ["cid", "name", "phone", "street", "city", "balance"],
    key="cid",
)


def record(cid, name, phone, street, city, balance):
    return Tuple(cid, {
        "cid": cid, "name": name, "phone": phone,
        "street": street, "city": city, "balance": balance,
    })


CUSTOMERS = [
    record(1, "John A. Smith", 5551234, "12 Mayfield Rd", "Edinburgh", 120.0),
    record(2, "john a smith", 5551235, "12 Mayfield Road", "Glasgow", 120.0),
    record(3, "Jon Smith", 5559999, "99 Crichton St", "Edinburgh", 15.0),
    record(4, "Maria Garcia", 4440000, "3 Rose Ln", "Madrid", 300.0),
    record(5, "maria garcia", 4440001, "3 Rose Lane", "Madrid", 290.0),
    record(6, "P. Jones", 3332222, "8 High St", "London", 75.0),
]

MDS = [
    # Same (normalized) name and nearly the same phone number => same city.
    MatchingDependency(
        [("name", NormalizedStringMatch()), ("phone", NumericTolerance(5))],
        ["city"],
        name="same_person_same_city",
    ),
    # Same (normalized) name and nearly the same phone => balances should agree within 1.
    MatchingDependency(
        [("name", NormalizedStringMatch()), ("phone", NumericTolerance(5))],
        [("balance", NumericTolerance(1.0))],
        name="same_person_same_balance",
    ),
    # Names within edit distance 1 in the same city should share the street.
    MatchingDependency(
        [("name", EditDistanceSimilarity(1)), "city"],
        [("street", NormalizedStringMatch())],
        name="near_duplicate_same_street",
    ),
]


def main() -> None:
    customers = Relation(SCHEMA, CUSTOMERS)

    print("== batch audit with matching dependencies ==")
    violations = detect_md_violations(MDS, customers)
    for tid in sorted(violations.tids()):
        name = customers[tid]["name"]
        print(f"  cid {tid} ({name!r}) violates {sorted(violations.cfds_of(tid))}")

    print("\n== incremental audit ==")
    audit = session(customers).rules(MDS).strategy("incremental").build()
    arrivals = UpdateBatch.of(
        Update.insert(record(7, "Maria  Garcia", 4440002, "3 Rose Lane", "Barcelona", 300.0)),
        Update.delete(CUSTOMERS[1]),   # the Glasgow duplicate of John Smith is purged
    )
    delta = audit.apply(arrivals)
    print(f"  new violations     : {sorted(delta.added_tids()) or '-'}")
    print(f"  resolved violations: {sorted(delta.removed_tids()) or '-'}")
    print(f"  flagged records now: {sorted(audit.violations.tids())}")

    print("\n== why incremental stays cheap ==")
    probe = record(8, "maria garcia", 4440003, "somewhere", "Valencia", 1.0)
    detector = audit.detector.inner
    candidates = detector.candidate_count("same_person_same_city", probe)
    print(
        f"  inserting another 'maria garcia' would be compared against only "
        f"{candidates} of {len(detector)} records thanks to blocking"
    )


if __name__ == "__main__":
    main()
