"""Names of the verification suites, in sorted order.

Kept apart from ``verify``, which builds its suite table from them, so
that the CLI can offer the names without importing the suites.
"""

SUITE_NAMES = (
    "cor61",
    "expansion",
    "lemma22",
    "lemma31",
    "lemma41",
    "prop62",
    "thm11",
    "thm12",
    "thm13",
    "thm14",
    "thm15",
)
