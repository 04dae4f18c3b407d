"""Universe/partition construction, inclusion ratios, and the size measure."""

from __future__ import annotations

import csv
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from threeway import (
    ApproximationSpace,
    Concept,
    DataError,
    concept_from_column,
    from_attribute_table,
    load_table,
    relative_cardinality,
)

from conftest import community_instance, users


def community_rows() -> list[dict[str, str]]:
    space, sport = community_instance()
    return [
        {
            "user": e,
            "community": space.label_of(e),
            "sport": "1" if e in sport.members else "0",
        }
        for e in space.elements
    ]


# -- strategies --------------------------------------------------------------

@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=8))
    ids = [f"e{i}" for i in range(n)]
    assignment = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    groups: dict[int, list[str]] = {}
    for element, bucket in zip(ids, assignment):
        groups.setdefault(bucket, []).append(element)
    return ApproximationSpace(ids, groups.values())


@st.composite
def spaces_with_concepts(draw):
    space = draw(small_spaces())
    members = draw(st.sets(st.sampled_from(space.elements)))
    return space, Concept(frozenset(members))


class TestPartitionFromAttributes:
    def test_community_table(self):
        space = from_attribute_table(community_rows(), ["community"])
        assert len(space.blocks) == 6
        assert sorted(len(b) for b in space.blocks) == [5, 5, 5, 5, 5, 7]
        assert space.labels == ("C1", "C2", "C3", "C4", "C5", "C6")
        assert space.block_of("u28") == tuple(sorted(users(26, 32)))

    def test_all_equal_key_gives_one_block(self):
        rows = [{"id": f"e{i}", "k": "same"} for i in range(7)]
        space = from_attribute_table(rows, ["k"])
        assert len(space.blocks) == 1
        assert set(space.blocks[0]) == {f"e{i}" for i in range(7)}

    def test_identity_key_gives_singletons(self):
        rows = community_rows()
        space = from_attribute_table(rows, ["user"])
        assert len(space.blocks) == 32
        assert all(len(b) == 1 for b in space.blocks)

    def test_multi_column_key(self):
        rows = [
            {"id": "a", "x": "1", "y": "p"},
            {"id": "b", "x": "1", "y": "q"},
            {"id": "c", "x": "1", "y": "p"},
        ]
        space = from_attribute_table(rows, ["x", "y"])
        assert len(space.blocks) == 2
        assert space.block_of("a") == ("a", "c")

    def test_comma_keys_get_their_own_labels(self):
        # joined with a bare comma, the first two keys would both read p,q,r
        rows = [
            {"id": "a", "x": "p,q", "y": "r"},
            {"id": "b", "x": "p", "y": "q,r"},
            {"id": "c", "x": 'say "hi"', "y": "r"},
        ]
        assert from_attribute_table(rows, ["x", "y"]).labels == ('"p,q",r', 'p,"q,r"', '"say ""hi""",r')
        assert from_attribute_table(rows, ["x"]).labels == ("p,q", "p", 'say "hi"')

    @given(st.lists(st.tuples(*[st.text(alphabet='pq,"', max_size=3)] * 2), min_size=1, max_size=6))
    def test_multi_column_label_reads_back_as_its_key(self, keys):
        rows = [{"id": f"e{i}", "x": x, "y": y} for i, (x, y) in enumerate(keys)]
        space = from_attribute_table(rows, ["x", "y"])
        assert sorted(tuple(next(csv.reader([label]))) for label in space.labels) == sorted(set(keys))

    def test_unknown_column(self):
        with pytest.raises(DataError, match="unknown column 'tribe'"):
            from_attribute_table(community_rows(), ["tribe"])

    def test_duplicate_id(self):
        rows = [{"id": "a", "k": "1"}, {"id": "a", "k": "2"}]
        with pytest.raises(DataError, match="duplicate"):
            from_attribute_table(rows, ["k"])

    def test_one_duplicate_in_a_large_table(self):
        rows = [{"id": f"e{i}", "k": str(i % 200)} for i in range(20_000)]
        rows[-1] = {"id": "e17", "k": "3"}
        with pytest.raises(DataError, match=r"^duplicate element id\(s\): e17$"):
            from_attribute_table(rows, ["k"])

    def test_empty_table(self):
        with pytest.raises(DataError, match="empty"):
            from_attribute_table([], ["k"])

    @given(small_spaces())
    def test_partition_axioms(self, space):
        union: set[str] = set()
        total = 0
        for block in space.blocks:
            assert block
            assert not union.intersection(block)
            union.update(block)
            total += len(block)
        assert union == set(space.elements)
        assert total == len(space.elements)

    @given(small_spaces())
    def test_canonical_block_order(self, space):
        mins = [block[0] for block in space.blocks]
        assert mins == sorted(mins)

    @given(small_spaces(), st.data())
    def test_labels_stay_with_their_blocks(self, space, data):
        given_blocks = data.draw(st.permutations([block[::-1] for block in space.blocks]))
        labels = [f"L{min(block)}" for block in given_blocks]
        relabelled = ApproximationSpace(space.elements, given_blocks, labels)
        assert relabelled.blocks == space.blocks
        assert relabelled.labels == tuple(f"L{block[0]}" for block in space.blocks)


class TestSpaceValidation:
    def test_empty_universe(self):
        with pytest.raises(DataError, match="non-empty"):
            ApproximationSpace([], [])

    def test_duplicate_elements(self):
        with pytest.raises(DataError, match="duplicate"):
            ApproximationSpace(["a", "a"], [["a"]])

    def test_overlapping_blocks(self):
        with pytest.raises(DataError, match="more than one block"):
            ApproximationSpace(["a", "b"], [["a", "b"], ["b"]])

    def test_uncovered_element(self):
        with pytest.raises(DataError, match="does not cover"):
            ApproximationSpace(["a", "b"], [["a"]])

    def test_empty_block(self):
        with pytest.raises(DataError, match="non-empty"):
            ApproximationSpace(["a"], [["a"], []])

    def test_stray_block_element(self):
        with pytest.raises(DataError, match="not in the universe"):
            ApproximationSpace(["a"], [["a", "z"]])

    def test_unknown_element_lookup(self):
        space, _ = community_instance()
        with pytest.raises(DataError, match="unknown element"):
            space.block_of("u99")

    def test_concept_members_checked(self):
        space, _ = community_instance()
        with pytest.raises(DataError, match="outside the universe"):
            space.check_concept(Concept(frozenset({"u1", "ghost"})))


class TestRefusals:
    @pytest.mark.parametrize("build, message", [
        (lambda: ApproximationSpace(["a", "b"], [["a"], ["b"]], labels=["A"]),
         "one label per block is required"),
        (lambda: ApproximationSpace(["a", "b", "c"], [["a"], ["b"], ["c"]], labels=["A", "B", "A"]),
         "duplicate block label(s): 'A'"),
        (lambda: from_attribute_table(community_rows(), []), "at least one key column is required"),
        (lambda: concept_from_column([], "x"), "the table is empty"),
        (lambda: from_attribute_table([], []), "the table is empty"),
        (lambda: from_attribute_table([{"id": "a", "k": "1"}, {"id": "b"}], ["k"]),
         "unknown column 'k'"),
        (lambda: concept_from_column([{"id": "a", "flag": "1"}, {"id": "b"}], "flag"),
         "unknown column 'flag'"),
        (lambda: from_attribute_table([{}], ["k"]), "the table has no columns"),
        (lambda: concept_from_column([{}], "x"), "the table has no columns"),
    ], ids=["labels_short", "labels_shared", "no_key_column", "concept_from_empty_table", "space_from_empty_table",
            "later_row_lacks_key_column", "later_row_lacks_concept_column",
            "space_from_columnless_table", "concept_from_columnless_table"])
    def test_typed_error_and_message(self, build, message):
        with pytest.raises(DataError) as info:
            build()
        assert message in str(info.value)


class TestRelativeCardinality:
    def test_empty_part_measures_zero(self):
        space, _ = community_instance()
        assert relative_cardinality(frozenset(), space.elements) == 0

    def test_whole_measures_one(self):
        space, _ = community_instance()
        assert relative_cardinality(space.elements, space.elements) == 1

    def test_sport_share_of_last_community(self):
        space, sport = community_instance()
        block = space.block_of("u26")
        assert relative_cardinality(sport.members, block) == Fraction(1, 7)

    def test_empty_whole_rejected(self):
        with pytest.raises(DataError, match="empty"):
            relative_cardinality(frozenset({"a"}), frozenset())

    @given(spaces_with_concepts())
    def test_measure_axioms_on_chains(self, space_concept):
        space, concept = space_concept
        universe = frozenset(space.elements)
        assert relative_cardinality(frozenset(), universe) == 0
        assert relative_cardinality(universe, universe) == 1
        smaller = frozenset(list(concept.members)[: len(concept.members) // 2])
        f_small = relative_cardinality(smaller, universe)
        f_big = relative_cardinality(concept.members, universe)
        assert 0 <= f_small <= f_big <= 1


class TestInclusionRatio:
    def test_golden_ratios(self):
        space, sport = community_instance()
        assert space.inclusion_ratio(sport, "u21") == Fraction(4, 5)
        assert space.inclusion_ratio(sport, "u11") == Fraction(2, 5)
        assert space.inclusion_ratio(sport, "u1") == 0

    def test_own_block_gives_one(self):
        space, _ = community_instance()
        block = Concept(frozenset(space.block_of("u6")))
        assert space.inclusion_ratio(block, "u6") == 1

    def test_unknown_element(self):
        space, sport = community_instance()
        with pytest.raises(DataError, match="unknown element"):
            space.inclusion_ratio(sport, "nobody")

    @given(spaces_with_concepts())
    def test_constant_on_blocks(self, space_concept):
        space, concept = space_concept
        for block in space.blocks:
            ratios = {space.inclusion_ratio(concept, e) for e in block}
            assert len(ratios) == 1

    @given(spaces_with_concepts())
    def test_block_ratios_match_elementwise(self, space_concept):
        space, concept = space_concept
        table = space.block_ratios(concept)
        for idx, block in enumerate(space.blocks):
            assert table[idx] == space.inclusion_ratio(concept, block[0])
            assert isinstance(table[idx], Fraction)


class TestCsv:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "communities.csv"
        rows = community_rows()
        header = ",".join(rows[0].keys())
        lines = [header] + [",".join(r.values()) for r in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        loaded = load_table(str(path))
        assert len(loaded) == 32
        space = from_attribute_table(loaded, ["community"])
        concept = concept_from_column(loaded, "sport")
        assert concept.label == "sport"
        assert len(concept.members) == 11
        assert space.inclusion_ratio(concept, "u26") == Fraction(1, 7)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,community\n", encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            load_table(str(path))

    @pytest.mark.parametrize("row, fields", [("u2,C1", 2), ("u2,C1,1,extra", 4)])
    def test_row_with_wrong_field_count(self, tmp_path, row, fields):
        path = tmp_path / "ragged.csv"
        path.write_text(f"user,community,sport\nu1,C1,0\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"line 3 has {fields} fields; the header has 3"):
            load_table(str(path))

    def test_repeated_header_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,g,g,x\na,1,2,1\nb,1,3,0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"dup\.csv header repeats the column\(s\) 'g'$"):
            load_table(str(path))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"user,community,sport\nu1,C1,1\nu2,Caf\xe9,0\n")
        with pytest.raises(DataError, match=r"latin\.csv is not UTF-8 text: .*0xe9"):
            load_table(str(path))

    def test_field_over_the_csv_limit(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("user,community,sport\nu1,C1,0\nu2," + "C" * 140_000 + ",1\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"wide\.csv line 3 is not readable CSV: "
                                             r"field larger than field limit"):
            load_table(str(path))

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with U+FEFF, which is no part of the first column's name
        path = tmp_path / "marked.csv"
        path.write_text("\ufeffid,grp,x\na,G1,1\nb,G1,0\n", encoding="utf-8")
        rows = load_table(str(path))
        assert rows == [{"id": "a", "grp": "G1", "x": "1"}, {"id": "b", "grp": "G1", "x": "0"}]
        assert from_attribute_table(rows, ["grp"], "id").blocks == (("a", "b"),)
        path.write_bytes(b"\xef\xbb\xbfid,grp\na,Caf\xe9\n")
        with pytest.raises(DataError, match=r"marked\.csv is not UTF-8 text: .*0xe9"):
            load_table(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("user,community\n\nu1,C1\n\nu2,C1\n", encoding="utf-8")
        assert load_table(str(path)) == [
            {"user": "u1", "community": "C1"}, {"user": "u2", "community": "C1"},
        ]

    def test_boolean_parsing(self):
        rows = [
            {"id": "a", "flag": "Yes"},
            {"id": "b", "flag": "FALSE"},
            {"id": "c", "flag": "1"},
        ]
        assert concept_from_column(rows, "flag").members == {"a", "c"}

    def test_empty_boolean_cell_is_not_a_member(self, tmp_path):
        path = tmp_path / "blank_cell.csv"
        path.write_text("id,g,x\na,G,1\nb,G,\nc,H,0\n", encoding="utf-8")
        rows = load_table(str(path))
        space = from_attribute_table(rows, ["g"])
        concept = concept_from_column(rows, "x")
        assert concept.members == {"a"}
        assert space.labels == ("G", "H")
        assert space.block_ratios(concept) == {0: Fraction(1, 2), 1: Fraction(0)}

    def test_non_boolean_value(self):
        rows = [{"id": "a", "flag": "maybe"}]
        with pytest.raises(DataError, match="not boolean"):
            concept_from_column(rows, "flag")

    def test_non_boolean_value_names_its_first_row(self):
        rows = [{"id": "a", "flag": "1"}, {"id": "b", "flag": "maybe"},
                {"id": "c", "flag": "perhaps"}, {"id": "d", "flag": "maybe"}]
        with pytest.raises(DataError, match=r"^column 'flag' is not boolean: 'maybe' for 'b'$"):
            concept_from_column(rows, "flag")

    def test_unknown_concept_column(self):
        rows = [{"id": "a", "flag": "1"}]
        with pytest.raises(DataError, match="unknown column 'sport'"):
            concept_from_column(rows, "sport")

    def test_unknown_id_column(self):
        rows = community_rows()
        with pytest.raises(DataError, match="unknown column 'nope'") as built:
            from_attribute_table(rows, ["community"], "nope")
        with pytest.raises(DataError) as read:
            concept_from_column(rows, "sport", "nope")
        assert str(read.value) == str(built.value)

    def test_unknown_id_column_named_before_key_columns(self):
        with pytest.raises(DataError, match="unknown column 'nope'"):
            from_attribute_table(community_rows(), ["tribe"], "nope")

    def test_unknown_id_column_without_members(self):
        with pytest.raises(DataError, match="unknown column 'nope'"):
            concept_from_column([{"id": "a", "flag": "0"}], "flag", "nope")
