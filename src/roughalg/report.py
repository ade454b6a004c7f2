"""JSON report shapes shared by the CLI.

Every `--json` report is one object with a `kind` discriminator and a fixed
field set; REPORT_SCHEMA pins those shapes so downstream consumers can rely
on them.
"""

from __future__ import annotations

from .approx import Partition, Subset
from .algebra import INDET, Classification, LawVerdict, OpTable


def subset_json(s: Subset) -> list[str]:
    return list(s.labels())


def partition_json(p: Partition) -> list[list[str]]:
    return [list(b.labels()) for b in p.blocks]


def cell_label(labels: tuple[str, ...], value) -> str:
    """How a table cell prints: "?" if indeterminate, else its element's label."""
    return "?" if value is INDET else labels[value]


def table_json(t: OpTable) -> dict:
    labs = t.universe.labels
    rows = [[cell_label(labs, t.cells[r * t.k + c]) for c in range(t.k)] for r in range(t.k)]
    return {"carrier": [labs[i] for i in t.order], "rows": rows}


def verdict_json(v: LawVerdict) -> dict:
    return {
        "law": v.law,
        "status": v.status,
        "counts": {"true": v.true_count, "false": v.false_count,
                   "indeterminate": v.indet_count},
        "witnesses": {bucket: list(w) for bucket, w in v.witnesses},
    }


def classification_json(name: str, c: Classification) -> dict:
    return {
        "kind": "classify",
        "table": name,
        "verdicts": [verdict_json(v) for v in c.verdicts],
        "flags": c.flags(),
    }


_LABELS = {"type": "array", "items": {"type": "string"}}
_BLOCKS = {"type": "array", "items": _LABELS}
_TABLE = {
    "type": "object",
    "properties": {"carrier": _LABELS, "rows": _BLOCKS},
    "required": ["carrier", "rows"],
    "additionalProperties": False,
}
_CONDITION = {
    "type": "object",
    "properties": {
        "holds": {"type": "boolean"},
        "true": {"type": "integer"},
        "false": {"type": "integer"},
        "indeterminate": {"type": "integer"},
        "witnesses": _BLOCKS,
    },
    "required": ["holds", "true", "false", "indeterminate", "witnesses"],
    "additionalProperties": False,
}
_VERDICT = {
    "type": "object",
    "properties": {
        "law": {"type": "string"},
        "status": {"enum": ["AllTrue", "AllFalse", "Mixed"]},
        "counts": {
            "type": "object",
            "properties": {"true": {"type": "integer"}, "false": {"type": "integer"},
                           "indeterminate": {"type": "integer"}},
            "required": ["true", "false", "indeterminate"],
            "additionalProperties": False,
        },
        "witnesses": {
            "type": "object",
            "properties": {"true": _LABELS, "false": _LABELS, "indeterminate": _LABELS},
            "additionalProperties": False,
        },
    },
    "required": ["law", "status", "counts", "witnesses"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "oneOf": [
        {"$ref": "#/$defs/parse"},
        {"$ref": "#/$defs/approx"},
        {"$ref": "#/$defs/classify"},
        {"$ref": "#/$defs/check"},
        {"$ref": "#/$defs/laws"},
        {"$ref": "#/$defs/search"},
        {"$ref": "#/$defs/audit"},
    ],
    "$defs": {
        "parse": {
            "type": "object",
            "properties": {
                "kind": {"const": "parse"},
                "ok": {"type": "boolean"},
                "counts": {
                    "type": "object",
                    "properties": {c: {"type": "integer"}
                                   for c in ("universes", "partitions", "sets", "tables", "mappings")},
                    "required": ["universes", "partitions", "sets", "tables", "mappings"],
                    "additionalProperties": False,
                },
            },
            "required": ["kind", "ok", "counts"],
            "additionalProperties": False,
        },
        "approx": {
            "type": "object",
            "properties": {
                "kind": {"const": "approx"},
                "space": {"type": "string"},
                "set": {"type": "string"},
                "lower": _LABELS,
                "upper": _LABELS,
                "boundary": _LABELS,
                "rough": {"type": "boolean"},
                "note": {
                    "oneOf": [
                        {"type": "null"},
                        {
                            "type": "object",
                            "properties": {
                                "item": {"type": "string"},
                                "claimed": {"type": "string"},
                                "citation": {"type": "string"},
                                "agrees": {"type": "boolean"},
                            },
                            "required": ["item", "claimed", "citation", "agrees"],
                            "additionalProperties": False,
                        },
                    ]
                },
            },
            "required": ["kind", "space", "set", "lower", "upper", "boundary", "rough", "note"],
            "additionalProperties": False,
        },
        "classify": {
            "type": "object",
            "properties": {
                "kind": {"const": "classify"},
                "table": {"type": "string"},
                "verdicts": {"type": "array", "items": _VERDICT},
                "flags": {
                    "type": "object",
                    "properties": {f: {"type": "boolean"}
                                   for f in ("semigroup", "group", "commutative-group",
                                             "anti-group", "anti-abelian", "ag4", "strict-ag4")},
                    "required": ["semigroup", "group", "commutative-group",
                                 "anti-group", "anti-abelian", "ag4", "strict-ag4"],
                    "additionalProperties": False,
                },
            },
            "required": ["kind", "table", "verdicts", "flags"],
            "additionalProperties": False,
        },
        "check": {
            "type": "object",
            "properties": {
                "kind": {"const": "check"},
                "check": {"enum": ["rough-semigroup", "rough-subsemigroup", "morphism"]},
                "overall": {"type": "boolean"},
                "upper": _LABELS,
                "condition1": _CONDITION,
                "condition2": {"oneOf": [{"type": "null"}, _CONDITION]},
                "morphism_kind": {"enum": ["hom", "anti-hom", "rough-hom", "rough-anti-hom"]},
                "surjective": {"type": "boolean"},
                "counts": {
                    "type": "object",
                    "properties": {c: {"type": "integer"}
                                   for c in ("preserved", "reversed", "violated", "indeterminate")},
                    "required": ["preserved", "reversed", "violated", "indeterminate"],
                    "additionalProperties": False,
                },
                "kernel": _LABELS,
                "image": _LABELS,
                "first_violation": {"oneOf": [{"type": "null"}, _LABELS]},
            },
            "required": ["kind", "check", "overall"],
            "additionalProperties": False,
        },
        "laws": {
            "type": "object",
            "properties": {
                "kind": {"const": "laws"},
                "max_n": {"type": "integer"},
                "suites": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "law": {"type": "string"},
                            "instances": {"type": "integer"},
                            "failures": {"type": "integer"},
                            "first_failure": {"type": ["object", "null"]},
                            "extra": {"type": "object",
                                      "additionalProperties": {"type": "integer"}},
                        },
                        "required": ["law", "instances", "failures", "first_failure", "extra"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["kind", "max_n", "suites"],
            "additionalProperties": False,
        },
        "search": {
            "type": "object",
            "properties": {
                "kind": {"const": "search"},
                "universe_size": {"type": "integer"},
                "carrier_size": {"type": "integer"},
                "requirements": {"type": "array", "items": _LABELS},
                "limit": {"type": "integer"},
                "budget": {"type": "integer"},
                "hits": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "index": {"type": "integer"},
                            "partition": _BLOCKS,
                            "table": _TABLE,
                        },
                        "required": ["index", "partition", "table"],
                        "additionalProperties": False,
                    },
                },
                "examined": {"type": "integer"},
                "total": {"type": "integer"},
                "limit_reached": {"type": "boolean"},
                "budget_exhausted": {"type": "boolean"},
            },
            "required": ["kind", "universe_size", "carrier_size", "requirements", "limit",
                         "budget", "hits", "examined", "total", "limit_reached",
                         "budget_exhausted"],
            "additionalProperties": False,
        },
        "audit": {
            "type": "object",
            "properties": {
                "kind": {"const": "audit"},
                "findings": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "item": {"type": "string"},
                            "claim": {"type": "string"},
                            "citation": {"type": "string"},
                            "derived": {"type": "string"},
                            "status": {"enum": ["MATCH", "DISCREPANCY", "NOT-WELL-FORMED"]},
                            "notes": _LABELS,
                        },
                        "required": ["item", "claim", "citation", "derived", "status", "notes"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["kind", "findings"],
            "additionalProperties": False,
        },
    },
}
