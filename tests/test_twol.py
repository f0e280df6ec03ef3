import random
import warnings

import pytest

from fstmorph import fst, lexc, lookup, twol
from fstmorph.errors import ParseError
from fstmorph.symbols import EPSILON_ID, SymbolTable

from conftest import (accepts, equivalent_acceptors, random_acceptor,
                      random_pair_string, random_ruleset, same_machine)

SOURCE = """
! tiny rule file exercising the grammar
Alphabet
 a b c a:b b:0 0:c %^T:0 ;

Sets
 Stop = b c ;

Rules

"Change before trigger"
a:b <=> _ ?* %^T:0 ;

"Drop after stop"
b:0 => Stop: _ ;

"Insertion restricted"
0:c => a: _ ( b: | c: ) ;
"""


@pytest.fixture
def ruleset():
    return twol.parse_twol(SOURCE)


def pair(ruleset, text):
    l, _, s = text.partition(":")
    table = ruleset.table
    def side(t):
        return EPSILON_ID if t == "0" else table.id_of(t)
    return (side(l), side(s) if s else side(l))


def string(ruleset, *texts):
    return [pair(ruleset, t) for t in texts]


# ---------------------------------------------------------------------------
# parsing

def test_parse_sections(ruleset):
    assert len(ruleset.alphabet.pairs) == 7
    assert [r.name for r in ruleset.rules] == [
        "Change before trigger", "Drop after stop", "Insertion restricted"]
    assert ruleset.rules[0].op == "<=>"
    assert ruleset.rules[1].op == "=>"
    table = ruleset.table
    assert ruleset.sets["Stop"] == [table.id_of("b"), table.id_of("c")]


def test_parse_unknown_set():
    with pytest.raises(ParseError, match="Vow"):
        twol.parse_twol(
            'Alphabet\n a ;\nRules\n"R" a:a => Vow: _ ;\n')


def test_parse_infeasible_center():
    with pytest.raises(ParseError):
        twol.parse_twol('Alphabet\n a b ;\nRules\n"R" a:b => _ ;\n')


def test_optionality_versus_wildcard():
    # glued '?' is optionality, standalone '?' is the any-pair wildcard
    rs = twol.parse_twol(
        'Alphabet\n a b a:b ;\nRules\n"R" a:b => a:a? _ ? ;\n')
    (rule,) = rs.rules
    left, right = rule.contexts[0]

    def unwrap(node):
        while isinstance(node, twol.Seq) and len(node.items) == 1:
            node = node.items[0]
        return node

    assert isinstance(unwrap(left), twol.Opt)
    atom = unwrap(right)
    assert isinstance(atom, twol.Atom)
    assert atom.left is None and atom.right is None


def test_comments_and_escapes():
    rs = twol.parse_twol(
        "Alphabet\n a %! b ; ! trailing comment\n")
    table = rs.table
    assert (table.id_of("!"), table.id_of("!")) in rs.alphabet.pairs


def test_quoted_token_in_a_context_is_a_symbol():
    rs = twol.parse_twol('Alphabet\n a b | ;\nRules\n"R" a => a "|" b _ ;\n')
    a, bar, b = (twol.Atom(rs.table.id_of(t), rs.table.id_of(t))
                 for t in "a|b")
    assert rs.rules[0].contexts == [(twol.Seq((a, bar, b)), twol.EPSILON_RE)]


def test_quoted_token_opens_a_rule_only_before_center_and_operator():
    rs = twol.parse_twol(
        'Alphabet\n a b ;\nRules\n"R" a => "b" _ ;\n"S" b => a _ ;\n')
    b = rs.table.id_of("b")
    assert [r.name for r in rs.rules] == ["R", "S"]
    assert rs.rules[0].contexts == [(twol.Atom(b, b), twol.EPSILON_RE)]


# ---------------------------------------------------------------------------
# oracle semantics (executable definition)

def test_oracle_definition_instances(ruleset):
    rule = ruleset.rules[0]  # a:b <=> _ ?* %^T:0
    assert twol.check_rule(rule, string(ruleset, "a:b", "%^T:0"), ruleset)
    # coercion violated: lexical a before the trigger must surface as b
    assert not twol.check_rule(rule, string(ruleset, "a:a", "%^T:0"), ruleset)
    # restriction violated: a:b without the trigger anywhere right
    assert not twol.check_rule(rule, string(ruleset, "a:b"), ruleset)
    assert twol.check_rule(rule, string(ruleset, "a:a"), ruleset)


def test_oracle_exclusion(ruleset):
    rs = twol.parse_twol(
        'Alphabet\n a b a:b ;\nRules\n"R" a:b /<= b:b _ ;\n')
    rule = rs.rules[0]
    assert not twol.check_rule(rule, string(rs, "b:b", "a:b"), rs)
    assert twol.check_rule(rule, string(rs, "a:b"), rs)


def test_compile_rule_examples():
    rs = twol.parse_twol(
        'Alphabet\n a x a:b b ;\nRules\n"R" a:b => x:x _ ;\n')
    machine = twol.compile_rule(rs.rules[0], rs)
    ab = rs.alphabet.pair_id(*pair(rs, "a:b"))
    xx = rs.alphabet.pair_id(*pair(rs, "x:x"))
    assert not accepts(machine, [ab])
    assert accepts(machine, [xx, ab])


def assert_compiler_agrees_with_oracle(rng, num_contexts):
    checked = 0
    for _ in range(120):
        rs = random_ruleset(rng, num_rules=1, num_contexts=num_contexts)
        rule = rs.rules[0]
        machine = twol.compile_rule(rule, rs)
        for _ in range(8):
            s = random_pair_string(rng=rng, ruleset=rs)
            pids = [rs.alphabet.pair_id(*p) for p in s]
            assert accepts(machine, pids) == twol.check_rule(rule, s, rs)
            checked += 1
    assert checked >= 900


def test_oracle_compiler_agreement_randomized():
    assert_compiler_agrees_with_oracle(random.Random(99), (1, 2))


def test_oracle_compiler_agreement_many_contexts():
    # where `=>` needs most care: every context may fail on either side
    assert_compiler_agrees_with_oracle(random.Random(2004), (3, 4))


def test_compile_rule_rejects_unknown_operator(ruleset):
    rule = ruleset.rules[0]
    bad = twol.TwolRule(rule.name, rule.center, "<>", rule.contexts)
    with pytest.raises(ValueError, match="bad operator"):
        twol.compile_rule(bad, ruleset)


def test_both_directions_equals_intersection():
    rng = random.Random(5)
    for _ in range(30):
        rs = random_ruleset(rng, num_rules=1)
        rule = rs.rules[0]
        if rule.op != "<=>":
            continue
        both = twol.compile_rule(rule, rs)
        right = twol.compile_rule(
            twol.TwolRule(rule.name, rule.center, "=>", rule.contexts), rs)
        left = twol.compile_rule(
            twol.TwolRule(rule.name, rule.center, "<=", rule.contexts), rs)
        assert equivalent_acceptors(both, fst.intersect(right, left))


# ---------------------------------------------------------------------------
# combination

def assert_combine_is_the_left_fold(ruleset, domains):
    """combine_rules, with each of domains (None for no domain), equals
    arc for arc the plain left-to-right intersect fold of the domain, if
    any, and the compiled rules."""
    rules = [twol.compile_rule(r, ruleset) for r in ruleset.rules]
    for domain in domains:
        machines = rules if domain is None else [domain] + rules
        expected = machines[0]
        for m in machines[1:]:
            expected = fst.intersect(expected, m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = twol.combine_rules(ruleset, domain=domain)
        assert same_machine(got, expected)


def test_combine_is_the_left_fold_random():
    rng = random.Random(47)
    for _ in range(200):
        rs = random_ruleset(rng, num_rules=rng.randint(1, 7))
        domain = random_acceptor(rs.table, rs.alphabet.pair_ids(), rng,
                                 max_states=6, max_arcs=24)
        assert_combine_is_the_left_fold(rs, [None, domain])


def test_combine_is_the_left_fold_on_the_fixture(fixture_parsed,
                                                 monkeypatch):
    _, ast, full = fixture_parsed
    rs = twol.RuleSet(full.alphabet, full.sets, full.rules[:17])
    domains = []  # the lexicon domain that a pipeline build passes
    monkeypatch.setattr(twol, "combine_rules",
                        lambda ruleset, domain:
                        domains.append(domain) or domain)
    lookup._restricted_rules(lexc.compile_lexicon(ast), rs)
    monkeypatch.undo()
    assert_combine_is_the_left_fold(rs, [None, domains[0]])


def test_combine_monotone():
    rng = random.Random(31)
    for _ in range(20):
        rs = random_ruleset(rng, num_rules=2)
        fewer = twol.RuleSet(rs.alphabet, rs.sets, rs.rules[:1])
        small = twol.combine_rules(rs, "direct")
        large = twol.combine_rules(fewer, "direct")
        pids = rs.alphabet.pair_ids()
        assert fst.is_empty(fst.difference(small, large, pids))


def test_contradictory_rules_warn():
    src = ('Alphabet\n a b a:b ;\nRules\n'
           '"Must" a:b <= b:b _ ;\n"MustNot" a:b /<= b:b _ ;\n')
    rs = twol.parse_twol(src)
    combined = twol.combine_rules(rs, "direct")
    bb = rs.alphabet.pair_id(*pair(rs, "b:b"))
    ab = rs.alphabet.pair_id(*pair(rs, "a:b"))
    aa = rs.alphabet.pair_id(*pair(rs, "a:a"))
    assert not accepts(combined, [bb, ab])
    assert not accepts(combined, [bb, aa])
    assert accepts(combined, [ab])


def test_empty_ruleset_is_sigma_star():
    rs = twol.parse_twol("Alphabet\n a b ;\n")
    combined = twol.combine_rules(rs, "direct")
    for s in ([], ["a:a"], ["a:a", "b:b"]):
        pids = [rs.alphabet.pair_id(*pair(rs, t)) for t in s]
        assert accepts(combined, pids)


def test_pairs_to_transducer():
    rs = twol.parse_twol("Alphabet\n a:b %^T:0 ;\n")
    table = rs.table
    ab = rs.alphabet.pair_id(*pair(rs, "a:b"))
    t0 = rs.alphabet.pair_id((table.id_of("%^T")), EPSILON_ID)
    acc = fst.string_acceptor(table, [ab, t0])
    machine = twol.pairs_to_transducer(acc, table)
    paths = fst.enumerate_paths(machine, 5, 10)
    assert {(p[0], p[1]) for p in paths.pairs} == {
        ((table.id_of("a"), table.id_of("%^T")), (table.id_of("b"),))}


def test_bad_escapes_are_located():
    sources = [
        ("Alphabet\n a q%\n ;\n", 2),
        ("Alphabet\n a ;\nSets\n S = a%\n ;\n", 4),
        ('Alphabet\n a ;\nRules\n"R" a => _ a%\n ;\n', 4),
    ]
    for source, line in sources:
        with pytest.raises(ParseError, match=rf"^r\.twol:{line}: dangling"):
            twol.parse_twol(source, filename="r.twol")


def test_lexer_errors_name_their_file():
    with pytest.raises(ParseError,
                       match=r"^r\.twol:4: unterminated rule name quote"):
        twol.parse_twol('Alphabet\n a ;\nRules\n"R a => _ ;\n',
                        filename="r.twol")
