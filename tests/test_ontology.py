import gc
import json
import random

import pytest

from ontodecode import ontology as ontology_module
from ontodecode.ontology import (
    Ontology,
    OntologyError,
    UnknownClassError,
    load_ontology,
)

from conftest import make_ontology, random_dag


def chain_abc() -> Ontology:
    # A <- B <- C (C child of B child of A)
    return make_ontology([
        {"id": "A", "label": "a"},
        {"id": "B", "label": "b", "parents": ["A"]},
        {"id": "C", "label": "c", "parents": ["B"]},
    ])


class TestLoad:
    def test_chain_from_file(self, tmp_path):
        path = tmp_path / "onto.json"
        path.write_text(json.dumps({"classes": [
            {"id": "A", "label": "a"},
            {"id": "B", "label": "b", "parents": ["A"]},
            {"id": "C", "label": "c", "parents": ["B"]},
        ]}))
        onto = load_ontology(path)
        assert len(onto) == 3
        assert onto.ancestors("C") == {"B", "A"}

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(OntologyError, match="not valid JSON"):
            load_ontology(path)

    def test_dangling_parent(self):
        with pytest.raises(OntologyError, match="dangling parent"):
            make_ontology([{"id": "B", "label": "b", "parents": ["missing"]}])

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("document, error", [
        ('{"classes": [{"id": "A", "label": "a"}]}', None),
        ("{not json", "not valid JSON"),
        ('{"classes": [{"id": "B", "label": "b", "parents": ["missing"]}]}', "dangling parent"),
    ])
    def test_load_leaves_the_collector_setting_as_it_found_it(self, tmp_path, collecting,
                                                              document, error):
        path = tmp_path / "onto.json"
        path.write_text(document)
        enabled = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if error is None:
                assert len(load_ontology(path)) == 1
            else:
                with pytest.raises(OntologyError, match=error):
                    load_ontology(path)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if enabled else gc.disable)()

    def test_dangling_restriction_value(self):
        with pytest.raises(OntologyError, match="dangling restriction"):
            make_ontology([
                {"id": "A", "label": "a", "restrictions": [
                    {"kind": "and", "pairs": [{"property": "p", "value": "nope"}]}
                ]},
            ])

    def test_cycle(self):
        with pytest.raises(OntologyError, match="cycle"):
            make_ontology([
                {"id": "A", "label": "a", "parents": ["B"]},
                {"id": "B", "label": "b", "parents": ["A"]},
            ])

    def test_self_parent(self):
        with pytest.raises(OntologyError, match="^cycle detected through class 'A'$"):
            make_ontology([{"id": "A", "label": "a", "parents": ["A"]}])

    def test_cycle_error_names_a_class_on_the_cycle(self):
        # B and C are each other's parent; A hangs below the cycle.
        with pytest.raises(OntologyError, match="^cycle detected through class '[BC]'$"):
            make_ontology([
                {"id": "A", "label": "a", "parents": ["B"]},
                {"id": "B", "label": "b", "parents": ["C"]},
                {"id": "C", "label": "c", "parents": ["B"]},
            ])

    def test_random_cycle_error_names_a_class_that_reaches_itself(self):
        rng = random.Random(19)
        for _ in range(200):
            parents = {f"n{i}": [f"n{p}" for p in rng.sample(range(i), min(i, rng.randint(0, 3)))]
                       for i in range(rng.randint(1, 15))}
            # A parent edge from an ancestor-or-self of ``below`` down to it closes a cycle.
            below = rng.choice(list(parents))
            above = [below]
            for cid in above:
                above += [p for p in parents[cid] if p not in above]
            parents[rng.choice(above)].append(below)
            order = list(parents)
            rng.shuffle(order)
            with pytest.raises(OntologyError, match="^cycle detected through class ") as caught:
                make_ontology([{"id": cid, "label": cid, "parents": parents[cid]}
                               for cid in order])
            named = str(caught.value).split()[-1].strip("'")
            reached = list(parents[named])
            for cid in reached:
                reached += [p for p in parents[cid] if p not in reached]
            assert named in reached

    def test_duplicate_id(self):
        with pytest.raises(OntologyError, match="duplicate"):
            make_ontology([
                {"id": "A", "label": "a"},
                {"id": "A", "label": "a again"},
            ])

    def test_missing_label(self):
        with pytest.raises(OntologyError, match="label"):
            make_ontology([{"id": "A", "label": ""}])

    def test_empty_restriction_pairs(self):
        with pytest.raises(OntologyError, match="empty 'pairs'"):
            make_ontology([
                {"id": "A", "label": "a", "restrictions": [{"kind": "and", "pairs": []}]},
            ])

    def test_unknown_restriction_kind_ignored(self, caplog):
        with caplog.at_level("WARNING"):
            onto = make_ontology([
                {"id": "A", "label": "a"},
                {"id": "B", "label": "b", "restrictions": [
                    {"kind": "some", "pairs": [{"property": "p", "value": "A"}]}
                ]},
            ])
        assert onto.restriction_classes("B") == set()
        assert "ignoring restriction" in caplog.text

    @pytest.mark.parametrize("key, value, items", [
        ("synonyms", "pyrexia", "strings"),
        ("synonyms", ["pyrexia", 5], "strings"),
        ("synonyms", None, "strings"),
        ("parents", "B", "strings"),
        ("parents", [["B"]], "strings"),
        ("restrictions", {"kind": "and"}, "objects"),
        ("restrictions", ["and"], "objects"),
    ])
    def test_non_array_field_is_rejected_not_split(self, key, value, items):
        with pytest.raises(OntologyError, match=f"class 'A': '{key}' must be an array of {items}"):
            make_ontology([{"id": "B", "label": "b"}, {"id": "A", "label": "fever", key: value}])

    @pytest.mark.parametrize("pair", [
        {"value": "B"},
        {"property": "p"},
        {"property": "p", "value": 5},
        ["p", "B"],
    ])
    def test_malformed_restriction_pair_names_the_class(self, pair):
        with pytest.raises(OntologyError, match="class 'A': 'pairs' must be an array of objects"):
            make_ontology([
                {"id": "B", "label": "b"},
                {"id": "A", "label": "a", "restrictions": [{"kind": "and", "pairs": [pair]}]},
            ])

    def test_excluded_roots_must_be_an_array_of_strings(self):
        with pytest.raises(OntologyError, match="'excluded_roots' must be an array of strings"):
            Ontology.from_dict({"classes": [{"id": "A", "label": "a"}], "excluded_roots": "A"})

    def test_excluded_roots_removes_branch(self):
        onto = make_ontology(
            [
                {"id": "Keep", "label": "keep"},
                {"id": "Qualifier", "label": "qualifier"},
                {"id": "Q1", "label": "q one", "parents": ["Qualifier"]},
                {"id": "Q2", "label": "q two", "parents": ["Q1"]},
            ],
            excluded_roots=["Qualifier"],
        )
        assert "Q1" not in onto and "Q2" not in onto
        assert "Qualifier" not in onto
        assert "Keep" in onto

    def test_excluded_branch_strips_references(self, caplog):
        with caplog.at_level("WARNING"):
            onto = make_ontology(
                [
                    {"id": "Qualifier", "label": "qualifier"},
                    {"id": "Q1", "label": "q one", "parents": ["Qualifier"]},
                    {"id": "Mixed", "label": "mixed", "parents": ["Q1", "Keep"]},
                    {"id": "Keep", "label": "keep", "restrictions": [
                        {"kind": "and", "pairs": [{"property": "p", "value": "Q1"}]}
                    ]},
                ],
                excluded_roots=["Qualifier"],
            )
        # Mixed sits under the excluded branch via Q1, so it is gone too.
        assert set(onto.classes) == {"Keep"}
        assert onto.restriction_classes("Keep") == set()

    def test_unknown_excluded_root_is_skipped(self, caplog):
        with caplog.at_level("WARNING"):
            onto = make_ontology([{"id": "A", "label": "a"}], excluded_roots=["ghost"])
        assert "A" in onto
        assert "ghost" in caplog.text

    def test_children_map_built_once_without_excluded_roots(self, monkeypatch):
        calls = []
        build = ontology_module._children_map

        def counting(classes):
            calls.append(len(classes))
            return build(classes)

        monkeypatch.setattr(ontology_module, "_children_map", counting)
        Ontology.from_dict({"classes": [
            {"id": "A", "label": "a"},
            {"id": "B", "label": "b", "parents": ["A"]},
        ]})
        assert calls == [2]


class TestAncestors:
    def test_chain(self):
        assert chain_abc().ancestors("C") == {"B", "A"}

    def test_root_is_empty(self):
        assert chain_abc().ancestors("A") == set()

    def test_diamond_deduplicates(self):
        onto = make_ontology([
            {"id": "A", "label": "a"},
            {"id": "B", "label": "b", "parents": ["A"]},
            {"id": "C", "label": "c", "parents": ["A"]},
            {"id": "D", "label": "d", "parents": ["B", "C"]},
        ])
        assert onto.ancestors("D") == {"B", "C", "A"}

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            chain_abc().ancestors("nope")

    def test_closure_is_the_classes_and_their_ancestors(self):
        rng = random.Random(11)
        for _ in range(10):
            onto = random_dag(rng, max_nodes=25)
            ids = rng.sample(sorted(onto.classes), k=rng.randint(0, 4))
            expected = set(ids).union(*(onto.ancestors(c) for c in ids))
            assert onto.closure(ids) == expected

    def test_closure_of_unknown_class(self):
        with pytest.raises(UnknownClassError):
            chain_abc().closure(["C", "nope"])

    def test_antisymmetric_on_random_dags(self):
        rng = random.Random(7)
        for _ in range(10):
            onto = random_dag(rng, max_nodes=25)
            for c in onto.classes:
                for d in onto.ancestors(c):
                    assert c not in onto.ancestors(d)


class TestDescendantsWithin:
    def test_alpha_zero(self):
        assert chain_abc().descendants_within("A", 0) == set()

    def test_one_hop(self):
        assert chain_abc().descendants_within("A", 1) == {"B"}

    def test_two_hops(self):
        assert chain_abc().descendants_within("A", 2) == {"B", "C"}

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            chain_abc().descendants_within("A", -1)

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            chain_abc().descendants_within("nope", 1)

    def test_monotone_in_alpha(self):
        rng = random.Random(11)
        for _ in range(10):
            onto = random_dag(rng, max_nodes=20)
            for c in onto.classes:
                previous: set[str] = set()
                for alpha in range(4):
                    current = onto.descendants_within(c, alpha)
                    assert previous <= current
                    previous = current


class TestRestrictions:
    def test_fever_values(self, medical_ontology):
        assert medical_ontology.restriction_classes("Fever") == {"BodyTemp", "AboveRef"}

    def test_no_restrictions(self, medical_ontology):
        assert medical_ontology.restriction_classes("Drug") == set()

    def test_shared_value_appears_once(self):
        onto = make_ontology([
            {"id": "V", "label": "v"},
            {"id": "W", "label": "w"},
            {"id": "A", "label": "a", "restrictions": [
                {"kind": "and", "pairs": [{"property": "p", "value": "V"}]},
                {"kind": "or", "pairs": [
                    {"property": "q", "value": "V"},
                    {"property": "q", "value": "W"},
                ]},
            ]},
        ])
        assert onto.restriction_classes("A") == {"V", "W"}


class TestVerbalize:
    def test_and_joins_with_spaces(self, medical_ontology):
        assert (medical_ontology.verbalize_restrictions("Fever")
                == "body temperature above reference range")

    def test_or_joins_with_or(self):
        onto = make_ontology([
            {"id": "Virus", "label": "Virus"},
            {"id": "Bacterium", "label": "Bacterium"},
            {"id": "Infection", "label": "Infection", "restrictions": [
                {"kind": "or", "pairs": [
                    {"property": "agent", "value": "Virus"},
                    {"property": "agent", "value": "Bacterium"},
                ]},
            ]},
        ])
        assert onto.verbalize_restrictions("Infection") == "Virus or Bacterium"

    def test_multiple_restrictions_join_with_AND(self):
        onto = make_ontology([
            {"id": "X", "label": "x label"},
            {"id": "Y", "label": "y label"},
            {"id": "A", "label": "a", "restrictions": [
                {"kind": "and", "pairs": [{"property": "p", "value": "X"}]},
                {"kind": "and", "pairs": [{"property": "q", "value": "Y"}]},
            ]},
        ])
        assert onto.verbalize_restrictions("A") == "x label AND y label"

    def test_empty(self, medical_ontology):
        assert medical_ontology.verbalize_restrictions("Aspirin") == ""

    def test_every_value_label_occurs(self):
        onto = make_ontology([
            {"id": "V", "label": "vlabel"},
            {"id": "A", "label": "a", "restrictions": [
                {"kind": "and", "pairs": [
                    {"property": "p", "value": "V"},
                    {"property": "q", "value": "V"},
                ]},
            ]},
        ])
        assert onto.verbalize_restrictions("A").count("vlabel") == 2
