import random
import re
import string
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_parse_pb, oracle_unknown_ballot, random_instance
from pbvoting.core import (ApprovalProfile, PBInstance, Project,
                           UnknownProjectError, compile_election)
from pbvoting.datagen import generate
from pbvoting.exact import solve_av
from pbvoting.pabulib import (PabulibParseError, format_decimal, parse_pb,
                              write_pb)

DATA = Path(__file__).parent / "data"

MINIMAL = """META
budget;1000
num_projects;1
num_votes;1
PROJECTS
project_id;cost
p;100
VOTES
voter_id;vote
v1;p
"""


def test_minimal_fixture():
    inst, prof, meta = parse_pb(MINIMAL)
    assert inst.budget == 1000
    assert inst.cost("p") == 100
    assert prof.ballots == (frozenset({"p"}),)
    assert meta["num_votes"] == "1"


def test_city_golden_file_byte_exact(city_pair):
    inst, prof = city_pair
    text = write_pb(inst, prof)
    assert text == (DATA / "city.pb").read_text(encoding="utf-8")


def test_city_roundtrips_through_pipeline(city_pair):
    inst, prof = city_pair
    inst2, prof2, _ = parse_pb(write_pb(inst, prof))
    assert inst2 == inst and prof2 == prof
    from pbvoting.core import social_welfare
    assert social_welfare(prof2, solve_av(inst2, prof2)) == 800


def test_unknown_project_in_vote_names_line():
    bad = MINIMAL.replace("v1;p", "v1;p,zz")
    with pytest.raises(PabulibParseError, match=r"line 10.*'zz'"):
        parse_pb(bad)


def test_missing_section():
    with pytest.raises(PabulibParseError, match="missing section VOTES"):
        parse_pb("META\nbudget;1\nnum_projects;0\nnum_votes;0\n"
                 "PROJECTS\nproject_id;cost\n")


def test_non_positive_cost_rejected():
    bad = MINIMAL.replace("p;100", "p;0")
    with pytest.raises(PabulibParseError, match="non-positive cost"):
        parse_pb(bad)


def test_malformed_budget():
    bad = MINIMAL.replace("budget;1000", "budget;12,5")
    with pytest.raises(PabulibParseError, match="malformed decimal"):
        parse_pb(bad)


def test_count_mismatches_rejected():
    with pytest.raises(PabulibParseError, match="num_votes"):
        parse_pb(MINIMAL.replace("num_votes;1", "num_votes;3"))
    with pytest.raises(PabulibParseError, match="num_projects"):
        parse_pb(MINIMAL.replace("num_projects;1", "num_projects;2"))


def test_non_approval_vote_type_rejected():
    bad = MINIMAL.replace("num_votes;1", "num_votes;1\nvote_type;ordinal")
    with pytest.raises(PabulibParseError, match="only approval"):
        parse_pb(bad)


def test_empty_vote_field_is_empty_ballot():
    text = MINIMAL.replace("v1;p", "v1;")
    _, prof, _ = parse_pb(text)
    assert prof.ballots == (frozenset(),)


def test_votes_deduplicate():
    text = MINIMAL.replace("v1;p", "v1;p,p")
    _, prof, _ = parse_pb(text)
    assert prof.ballots == (frozenset({"p"}),)


def test_empty_profile_roundtrip():
    inst = PBInstance((Project("p", 100),), 1000)
    prof = ApprovalProfile(())
    text = write_pb(inst, prof)
    assert "num_votes;0" in text
    inst2, prof2, _ = parse_pb(text)
    assert prof2.n_voters == 0 and inst2 == inst


def test_extra_meta_preserved_and_conflicts_rejected(city_pair):
    inst, prof = city_pair
    text = write_pb(inst, prof, {"description": "three districts"})
    _, _, meta = parse_pb(text)
    assert meta["description"] == "three districts"
    with pytest.raises(ValueError, match="derived"):
        write_pb(inst, prof, {"budget": "999"})


def _unwritable(ids, meta, field, value, reason, name):
    return pytest.param(ids, meta, f"{field} {value!r} cannot be written to "
                        f"a .pb file: {reason}", id=name)


UNWRITABLE = [
    _unwritable([""], {}, "project id", "", "it is empty", "empty-id"),
    _unwritable([" a"], {}, "project id", " a",
                "it has surrounding whitespace", "id-leading-blank"),
    _unwritable(["a\t"], {}, "project id", "a\t",
                "it has surrounding whitespace", "id-trailing-tab"),
    _unwritable(["a,b"], {}, "project id", "a,b", "it holds ','", "id-comma"),
    _unwritable(["a;b"], {}, "project id", "a;b", "it holds ';'",
                "id-semicolon"),
    _unwritable(["a\nb"], {}, "project id", "a\nb", "it holds '\\n'",
                "id-lf"),
    _unwritable(["a\rb"], {}, "project id", "a\rb", "it holds '\\r'",
                "id-cr"),
    _unwritable(["a"], {" k": "v"}, "meta key", " k",
                "it has surrounding whitespace", "key-leading-blank"),
    _unwritable(["a"], {"k;l": "v"}, "meta key", "k;l", "it holds ';'",
                "key-semicolon"),
    _unwritable(["a"], {"k\nl": "v"}, "meta key", "k\nl",
                "it holds '\\n'", "key-lf"),
    _unwritable(["a"], {"k": "v "}, "meta 'k' value", "v ",
                "it has surrounding whitespace", "value-trailing-blank"),
    _unwritable(["a"], {"k": "a;b"}, "meta 'k' value", "a;b",
                "it holds ';'", "value-semicolon"),
    _unwritable(["a"], {"k": "x\ny"}, "meta 'k' value", "x\ny",
                "it holds '\\n'", "value-lf"),
    _unwritable(["a"], {"k": "x\ry"}, "meta 'k' value", "x\ry",
                "it holds '\\r'", "value-cr"),
]


@pytest.mark.parametrize("ids, meta, error", UNWRITABLE)
def test_write_pb_rejects_what_would_not_read_back(ids, meta, error):
    # parse_pb would strip ' a', drop '' from every vote, split a line at
    # a line break and reject the rows that 'a,b' and 'a;b' make
    inst = PBInstance(tuple(Project(pid, 10) for pid in ids), 100)
    prof = ApprovalProfile((frozenset(ids),))
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        write_pb(inst, prof, meta)


def test_a_comma_is_fine_outside_project_ids():
    inst = PBInstance((Project("a", 10),), 100)
    text = write_pb(inst, ApprovalProfile(()), {"description": "x, y"})
    assert parse_pb(text)[2]["description"] == "x, y"


def test_format_decimal():
    assert format_decimal(Fraction(1234567, 100)) == "12345.67"
    assert format_decimal(Fraction(5)) == "5"
    assert format_decimal(Fraction(1, 8)) == "0.125"
    assert format_decimal(Fraction(-3, 4)) == "-0.75"
    with pytest.raises(ValueError):
        format_decimal(Fraction(1, 3))


def test_high_precision_costs_kept_exact():
    text = MINIMAL.replace("p;100", "p;100.123456")
    inst, _, _ = parse_pb(text)
    assert inst.cost("p") == Fraction(100123456, 10 ** 6)


def test_roundtrip_on_generated_corpora():
    for seed in range(50):
        for kind in ("euclidean-desk", "partylist-desk"):
            inst, prof = generate(kind, seed)
            text = write_pb(inst, prof)
            inst2, prof2, _ = parse_pb(text)
            assert inst2 == inst and prof2 == prof, (kind, seed)
            assert write_pb(inst2, prof2) == text, (kind, seed)


def test_roundtrip_on_random_instances():
    for seed in range(50):
        inst, prof = random_instance(seed, max_projects=10)
        inst2, prof2, _ = parse_pb(write_pb(inst, prof))
        assert inst2 == inst and prof2 == prof, seed


@pytest.mark.parametrize("key", ["num_projects", "num_votes"])
def test_non_integer_count_names_key_and_line(key):
    bad = MINIMAL.replace(f"{key};1", f"{key};one")
    line = MINIMAL.splitlines().index(f"{key};1") + 1
    with pytest.raises(PabulibParseError, match=rf"line {line}: {key}.*'one'"):
        parse_pb(bad)


def test_zero_projects_is_a_parse_error():
    text = ("META\nbudget;1000\nnum_projects;0\nnum_votes;1\n"
            "PROJECTS\nproject_id;cost\nVOTES\nvoter_id;vote\nv1;\n")
    with pytest.raises(PabulibParseError, match="line 5: PROJECTS has no"):
        parse_pb(text)


# a fraction; two spellings of 10 that `Fraction` reads but that are not
# ASCII decimals, a digit separator and fullwidth digits; and an exponent
# too long to expand.  Each with its whole error, naming its field.
MALFORMED = "malformed decimal {text!r} for {what}"
NOT_DECIMALS = [("1/3", "{what} must be a finite decimal, got {text!r}"),
                ("1_0", MALFORMED), ("\uff11\uff10", MALFORMED),
                ("1e1000000", MALFORMED)]


def test_budget_must_be_a_finite_decimal():
    for text, error in NOT_DECIMALS:
        bad = MINIMAL.replace("budget;1000", f"budget;{text}")
        message = "line 2: " + error.format(text=text, what="budget")
        with pytest.raises(PabulibParseError, match=re.escape(message) + "$"):
            parse_pb(bad)


def test_cost_must_be_a_finite_decimal():
    for text, error in NOT_DECIMALS:
        bad = MINIMAL.replace("p;100", f"p;{text}")
        message = "line 7: " + error.format(text=text, what="project 'p'")
        with pytest.raises(PabulibParseError, match=re.escape(message) + "$"):
            parse_pb(bad)


def test_a_three_digit_exponent_is_a_decimal():
    text = MINIMAL.replace("budget;1000", "budget;1e-3").replace(
        "p;100", "p;25E+002")
    inst = parse_pb(text)[0]
    assert inst.budget == Fraction(1, 1000)
    assert inst.projects[0].cost == 2500


@st.composite
def pb_elections(draw):
    # decimal costs and budget with per-value denominators 2^a * 5^b
    ids = draw(st.lists(st.text(string.ascii_letters + string.digits + "_-.",
                                min_size=1, max_size=6),
                        min_size=1, max_size=8, unique=True))

    def amount():
        unit = draw(st.sampled_from([1, 2, 4, 5, 8, 10, 100, 1000, 5000]))
        return Fraction(draw(st.integers(1, 10 ** 6)), unit)

    costs = [amount() for _ in ids]
    ballots = draw(st.lists(st.frozensets(st.sampled_from(ids)), max_size=12))
    return (PBInstance(tuple(map(Project, ids, costs)), amount()),
            ApprovalProfile(tuple(ballots)))


@given(pb_elections())
def test_pb_roundtrip_is_exact(election):
    inst, prof = election
    assert parse_pb(write_pb(inst, prof))[:2] == (inst, prof)


TOKENS = ["", ";", ",", "-", "0", "x", "1/0", "nan", "1e400", "\t", "\n",
          "META", "VOTES", "key;value", "num_votes;1", "A-d0"]


def _mutate(lines: list[str], rng: random.Random) -> list[str]:
    """Delete or duplicate a line, or insert a token at a cell boundary.

    Half the edits go to the META and PROJECTS lines, which carry the
    structure, and half anywhere in the file.
    """
    lines = list(lines)
    at = rng.randrange(min(26, len(lines)) if rng.random() < 0.5
                       else len(lines))
    kind = rng.choice(["delete", "duplicate", "insert"])
    line = lines[at]
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, line)
    else:
        pos = rng.choice([0, len(line)] + [i + 1 for i, ch in enumerate(line)
                                           if ch in ";,"])
        lines[at] = line[:pos] + rng.choice(TOKENS) + line[pos:]
    return lines


def _parsed(parse, text):
    """What `parse` makes of `text`: its result, or its parse error as
    (type, message, line).  Any other exception propagates."""
    try:
        return parse(text)
    except PabulibParseError as e:
        return type(e), str(e), e.line


def _same_as_oracle(text):
    assert _parsed(parse_pb, text) == _parsed(oracle_parse_pb, text), text


def test_mutated_city_file_raises_only_parse_errors():
    # ... and gives the result or the parse error that the oracle gives
    city_lines = (DATA / "city.pb").read_text(encoding="utf-8").splitlines()
    rng = random.Random(0)
    for _ in range(1000):
        lines = city_lines
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(lines, rng)
        text = "\n".join(lines) + "\n"
        try:
            got = _parsed(parse_pb, text)
        except Exception as e:  # any other exception breaks the property
            pytest.fail(f"{type(e).__name__}: {e}\n{text}")
        assert got == _parsed(oracle_parse_pb, text), text


def _pb_text(project_rows, vote_rows, votes_header="voter_id;vote",
             num_votes=None, end="\n"):
    lines = ["META", "key;value", "budget;1000",
             f"num_projects;{len(project_rows)}",
             f"num_votes;{len(vote_rows) if num_votes is None else num_votes}",
             "PROJECTS", "project_id;cost", *project_rows,
             "VOTES", votes_header, *vote_rows]
    return end.join(lines) + end


TWO = ["p1;100", "p2;200"]


@pytest.mark.parametrize("projects, votes, header", [
    (TWO, ["v1; p1 , p2 ", "v2;\tp2"], "voter_id;vote"),  # blanks around ids
    (TWO, ["v1;p1,,p2", "v2;,", "v3;p1,"], "voter_id;vote"),  # empty ids
    (TWO, ["v1;p1,p1,p2,p2", "v2;p2,p1"], "voter_id;vote"),  # duplicate ids
    (TWO, ["v1;p1", "v2;p1,zz", "v3;yy"], "voter_id;vote"),  # unknown ids
    (TWO, ["v1;p1", "v2;zz", "v3;p1;extra"], "voter_id;vote"),  # then width
    (TWO, ["v1;zz", "v2;p2"], "voter_id;votes"),  # width beats columns
    (TWO, ["v1;zz;1", "v2;p2"], "voter_id;votes"),
    (TWO, ["30;p1,p2;v1", "40;p2;v2"], "age;vote;voter_id"),
    (TWO, ["v1;p1,p2;", "v2;p2"], "voter_id;vote;"),
    (["p1;100", ";50"], ["v1;", "v2;p1,,", "v3; "], "voter_id;vote"),
    (["p1;100", " ;50", "p 2;10"], ["v1;p 2, ,p1", "v2;p2"], "voter_id;vote"),
    (["p1;100", "p 2;10"], ["v1;p 2, ,p1", "v2;p2"], "voter_id;vote"),
])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_parse_matches_the_oracle_on_awkward_votes(projects, votes, header,
                                                  end):
    _same_as_oracle(_pb_text(projects, votes, header, end=end))
    # blank lines between the votes are skipped, but count in line numbers
    spaced = _pb_text(projects, [row + end for row in votes], header, end=end)
    _same_as_oracle(spaced)


@pytest.mark.parametrize("row, error", [
    (";50", "project id '' cannot be voted for: it is empty"),
    (" \t;50", "project id '' cannot be voted for: it is empty"),
    ("a,b;0", "project id 'a,b' cannot be voted for: it holds ','"),
])
def test_a_project_id_that_no_vote_can_name_is_refused(row, error):
    # the id is checked before the cost, on the project's own line
    text = _pb_text(["p1;100", row], ["v1;p1"])
    with pytest.raises(PabulibParseError,
                       match="^" + re.escape(f"line 9: {error}") + "$"):
        parse_pb(text)
    _same_as_oracle(text)


def test_rows_with_equal_vote_cells_share_one_ballot():
    _, prof, _ = parse_pb(_pb_text(TWO, ["v1;p1,p2", "v2;p2", "v3;p1,p2"]))
    assert prof.ballots[0] == frozenset({"p1", "p2"})
    assert prof.ballots[0] is prof.ballots[2]


def test_a_repeated_unknown_id_is_reported_on_its_first_row():
    # the cell with zz comes back on a later row; the earlier row is named
    text = _pb_text(TWO, ["v1;p1", "v2;p2, zz", "v3;yy", "v4;p2, zz"])
    with pytest.raises(PabulibParseError,
                       match=r"^line 13: .* unknown project id 'zz'$"):
        parse_pb(text)
    _same_as_oracle(text)


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_only_cr_and_lf_end_a_line(char):
    # `str.splitlines` breaks at these as well, splitting the row in two
    text = _pb_text([f"p1;100;a{char}b"], ["v1;p1"]).replace(
        "project_id;cost", "project_id;cost;name")
    inst, prof, _ = parse_pb(text)
    assert inst.project_ids == ("p1",) and prof.ballots == (frozenset({"p1"}),)
    _same_as_oracle(text)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_a_lone_cr_ends_a_line_too(end):
    assert parse_pb(_pb_text(TWO, ["v1;p1"], end=end))[:2] == \
        parse_pb(_pb_text(TWO, ["v1;p1"]))[:2]


def test_a_cell_that_needs_stripping_matches_a_clean_cell():
    _, prof, _ = parse_pb(_pb_text(TWO, ["v1;p1,p2", "v2; p1, p2"]))
    assert prof.ballots == (frozenset({"p1", "p2"}),) * 2


VOTE_PIECES = ["p1", "p2", "p 3", "", " p1", "p2 ", "\tp 3", "zz", "p", " "]


@st.composite
def pb_texts(draw):
    """`.pb` texts whose VOTES rows mix known, unknown, blank and empty ids,
    with wrong widths, odd headers and wrong vote counts now and then."""
    ids = draw(st.lists(st.sampled_from(["p1", "p2", "p 3", "p", ""]),
                        min_size=1, max_size=4, unique=True))
    project_rows = [draw(st.sampled_from(["{};10", " {} ;10", "{};5.5"]))
                    .format(pid) for pid in ids]
    header = draw(st.sampled_from(["voter_id;vote", "vote;voter_id",
                                   "voter_id;vote;age", " voter_id ; vote ",
                                   "voter_id;votes"]))
    columns = [c.strip() for c in header.split(";")]
    at = columns.index("vote") if "vote" in columns else 1
    vote_rows = []
    voters = draw(st.integers(0, 6))
    for i in range(voters):
        cells = [str(i)] * len(columns)
        cells[at] = ",".join(draw(st.lists(st.sampled_from(VOTE_PIECES),
                                           max_size=4)))
        if draw(st.integers(0, 19)) == 0:
            cells.append(draw(st.sampled_from(["", "p1"])))
        vote_rows.append(";".join(cells))
        if draw(st.integers(0, 9)) == 0:
            vote_rows.append(" ")
    num_votes = voters + draw(st.sampled_from([0, 0, 0, 1]))
    return _pb_text(project_rows, vote_rows, header, num_votes,
                    draw(st.sampled_from(["\n", "\r\n"])))


@given(pb_texts())
def test_parse_matches_the_oracle_on_generated_files(text):
    _same_as_oracle(text)


@given(pb_texts())
def test_a_parsed_file_writes_back_to_the_same_election(text):
    try:
        inst, prof, _ = parse_pb(text)
    except PabulibParseError:
        return
    assert parse_pb(write_pb(inst, prof))[:2] == (inst, prof)


def _reordered(profile, order):
    """`profile` with its ids in `order` (a permutation of their indices)
    and one more id that no voter approves, the masks moved to match."""
    ids = [profile.ids[k] for k in order] + ["unused"]
    return ApprovalProfile.from_masks(ids, (
        sum((mask >> old & 1) << new for new, old in enumerate(order))
        for mask in profile.voters))


def _pairs_to_compare(draw):
    """An instance and its profile three ways: parsed from `.pb` text, built
    from the same ballots, and with its ids in another order."""
    if draw(st.booleans()):
        text = draw(pb_texts())
        outcome = _parsed(parse_pb, text)
        # errors, unknown and blank ids among them, are the plain parser's
        assert outcome == _parsed(oracle_parse_pb, text), text
        if not isinstance(outcome[0], PBInstance):
            return None
        inst, parsed, _ = parse_pb(text)  # one that no comparison has seen
        built = oracle_parse_pb(text)[1]
    else:
        inst, built = random_instance(draw(st.integers(0, 10 ** 6)))
        parsed = parse_pb(write_pb(inst, built))[1]
    order = draw(st.permutations(range(len(parsed.ids))))
    return inst, (parsed, built, _reordered(parsed, order))


@given(st.data())
def test_a_profile_is_the_same_however_its_voters_were_built(data):
    pairs = _pairs_to_compare(data.draw)
    if pairs is None:
        return
    inst, profiles = pairs
    parsed, built, reordered = profiles
    assert parsed.ids == inst.project_ids
    assert "ballots" not in vars(parsed) and "ballots" not in vars(reordered)
    assert parsed == built == reordered == parsed
    assert len({hash(p) for p in profiles}) == 1
    assert len({write_pb(inst, p) for p in profiles}) == 1
    elections = [vars(compile_election(inst, p)) for p in profiles]
    assert elections[0] == elections[1] == elections[2]
    assert elections[0]["project_masks"] == tuple(
        sum(1 << i for i, ballot in enumerate(built.ballots) if pid in ballot)
        for pid in inst.project_ids)
    # an instance that lacks a project some voter approves
    smaller = PBInstance(inst.projects[1:] or (Project("other", 1),),
                         inst.budget)
    message = oracle_unknown_ballot(smaller, built)
    for profile in profiles:
        for check in (profile.validate, lambda i: compile_election(i, profile),
                      lambda i: write_pb(i, profile)):
            if message is None:
                check(smaller)
                continue
            with pytest.raises(UnknownProjectError) as raised:
                check(smaller)
            assert str(raised.value) == message
