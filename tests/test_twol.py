import hashlib
import random
import warnings

import pytest

from fstmorph import att, fst, lexc, lookup, twol
from fstmorph.errors import ParseError
from fstmorph.symbols import EPSILON_ID, SymbolTable

from conftest import (accepts, equivalent_acceptors, random_pair_string,
                      random_ruleset, read_fixture, reference_compile_rule,
                      same_machine)

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

    a = rs.table.id_of("a")
    assert unwrap(left) == twol.Alt((twol.Atom(a, a), twol.EPSILON_RE))
    atom = unwrap(right)
    assert isinstance(atom, twol.Atom)
    assert atom.left is None and atom.right is None


def test_plus_and_glued_question_mark_parse_to_core_nodes():
    # `x+` is `x x*` and a glued `x?` is `( x | )`
    rs = twol.parse_twol(
        'Alphabet\n a b a:b ;\nRules\n"R" a:b => a+ _ b:? ;\n')
    a, b = rs.table.id_of("a"), rs.table.id_of("b")
    x, y = twol.Atom(a, a), twol.Atom(b, None)
    assert rs.rules[0].contexts == [(twol.Seq((x, twol.Star(x))),
                                     twol.Alt((y, twol.EPSILON_RE)))]


def test_a_set_atom_holds_its_members(ruleset):
    table = ruleset.table
    stop = frozenset({table.id_of("b"), table.id_of("c")})
    (left, _), = ruleset.rules[1].contexts  # b:0 => Stop: _ ;
    assert left == twol.Atom(stop, None)


def test_plus_and_question_mark_compile_as_spelled_out():
    header = "Alphabet\n a b c a:b b:0 0:c ;\nRules\n"
    rng = random.Random(14)
    for op in twol.OPERATORS:
        short = twol.parse_twol(
            header + f'"R" a:b {op} c+ b:? _ (a | 0:c)+ ; c? _ ;\n')
        spelled = twol.parse_twol(
            header + f'"R" a:b {op} c c* ( b: | ) _ (a | 0:c) (a | 0:c)* ;'
            " ( c | ) _ ;\n", short.table)
        machine = twol.compile_rule(short.rules[0], short)
        assert same_machine(machine,
                            twol.compile_rule(spelled.rules[0], spelled))
        for _ in range(200):
            s = random_pair_string(short, rng, max_len=7)
            pids = [short.alphabet.pair_id(*p) for p in s]
            assert twol.check_rule(short.rules[0], s, short) == \
                twol.check_rule(spelled.rules[0], s, spelled) == \
                accepts(machine, pids)


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


def assert_compiler_agrees_with_oracle(rng, num_contexts, **options):
    checked = 0
    for _ in range(120):
        rs = random_ruleset(rng, num_rules=1, num_contexts=num_contexts,
                            **options)
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


WIDER_DRAWS = {"set-sides": {"set_sides": True},
               "dead-atoms": {"dead_atoms": True},
               "infeasible-center": {"infeasible_center": True}}


@pytest.mark.parametrize("options", WIDER_DRAWS.values(), ids=WIDER_DRAWS)
def test_oracle_compiler_agreement_wider_rule_sets(options):
    assert_compiler_agrees_with_oracle(random.Random(2009), (1, 4), **options)


def test_compile_rule_is_the_pair_alphabet_reference_on_the_fixture(
        fixture_parsed):
    _, _, rs = fixture_parsed
    assert len(rs.rules) == 20
    for rule in rs.rules:
        machine = twol.compile_rule(rule, rs)
        assert same_machine(machine, reference_compile_rule(rule, rs))
        assert machine.deterministic


def test_compile_rule_is_the_pair_alphabet_reference_random():
    rng = random.Random(2009)
    for k in range(320):
        options = {"set_sides": k % 2 == 1, "dead_atoms": k % 3 == 1,
                   "infeasible_center": k % 4 == 3}
        rs = random_ruleset(rng, num_rules=2, num_contexts=(1, 4), **options)
        for rule in rs.rules:
            assert same_machine(twol.compile_rule(rule, rs),
                                reference_compile_rule(rule, rs))


def test_each_fixture_rule_complements_over_its_own_classes(
        fixture_parsed, monkeypatch):
    # the fixture rules tell apart 3 to 7 classes of its 48 pairs
    _, _, rs = fixture_parsed
    complement = fst.complement
    alphabets = []
    monkeypatch.setattr(fst, "complement", lambda a, alphabet: (
        alphabets.append(set(alphabet)) or complement(a, alphabet)))
    for rule in rs.rules:
        twol.compile_rule(rule, rs)
    assert len(alphabets) == 20 + sum(r.op in ("=>", "<=>") for r in rs.rules)
    assert max(map(len, alphabets)) <= 7 + 1  # the classes and the marker


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

def assert_combine_is_the_left_fold(ruleset):
    """combine_rules equals arc for arc the plain left-to-right intersect
    fold of the compiled rules."""
    rules = [twol.compile_rule(r, ruleset) for r in ruleset.rules]
    expected = rules[0]
    for m in rules[1:]:
        expected = fst.intersect(expected, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = twol.combine_rules(ruleset)
    assert same_machine(got, expected)


def test_combine_is_the_left_fold_random():
    rng = random.Random(47)
    for _ in range(200):
        assert_combine_is_the_left_fold(
            random_ruleset(rng, num_rules=rng.randint(1, 7)))


def parsed_fixture(roots=None, affixes=None, rules=None):
    """The fixture's lexicon and rules, parsed over one table in the
    order a build parses them, with the text of roots.lexc,
    affixes.lexc or phonology.twol replaced where one is given."""
    table = SymbolTable()
    ast = lexc.parse_lexc("\n".join([roots or read_fixture("roots.lexc"),
                                     affixes or read_fixture("affixes.lexc")]),
                          table)
    return ast, twol.parse_twol(rules or read_fixture("phonology.twol"), table)


def test_combine_is_the_left_fold_on_the_fixture():
    _, full = parsed_fixture()
    assert_combine_is_the_left_fold(
        twol.RuleSet(full.alphabet, full.sets, full.rules[:17]))


def test_apply_rules_explores_one_product(monkeypatch):
    """With the rule DFAs compiled beforehand, apply_rules on the fixture
    explores one product of the lexicon and the 20 rules, and no
    machine before or after it."""
    ast, rs = parsed_fixture()
    lexicon = lexc.compile_lexicon(ast)
    compiled = {id(r): twol.compile_rule(r, rs) for r in rs.rules}
    monkeypatch.setattr(twol, "compile_rule",
                        lambda rule, ruleset: compiled[id(rule)])
    explored = []
    explore = fst._explore
    monkeypatch.setattr(fst, "_explore",
                        lambda *args: explored.append(args) or explore(*args))
    twol.apply_rules(lexicon, rs)
    assert len(explored) == 1


def test_a_rule_file_with_no_rules_keeps_its_generator():
    """The fixture lexicon under the fixture's alphabet and no rules: the
    product has no rule DFA, every feasible pair passes, and the
    generator's AT&T text keeps its pinned SHA-256."""
    rules = read_fixture("phonology.twol")
    ast, rs = parsed_fixture(
        rules=rules[:rules.index("\nRules\n") + len("\nRules\n")])
    assert not rs.rules
    generator = lookup.build_pipeline(ast, rs).generator
    digest = hashlib.sha256(
        att.export_att(generator, rs.table).encode("utf-8")).hexdigest()
    assert digest == \
        "de8e25d39df68a7e50af0682307933e6c2ba9e8f9ee55f706b474fed4a094ac5"


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


def test_bad_escapes_are_located():
    sources = [
        ("Alphabet\n a q%\n ;\n", 2),
        ("Alphabet\n a ;\nSets\n S = a%\n ;\n", 4),
        ('Alphabet\n a ;\nRules\n"R" a => _ a%\n ;\n', 4),
    ]
    for source, line in sources:
        with pytest.raises(ParseError, match=rf"^r\.twol:{line}: dangling"):
            twol.parse_twol(source, filename="r.twol")


def test_a_pair_with_two_colons_is_located():
    sources = [
        ("Alphabet\n a b\n a:b:c ;\n", 3),
        ('Alphabet\n a b a:b ;\nRules\n"R"\n a:b:c => _ ;\n', 5),
        ('Alphabet\n a b a:b ;\nRules\n"R" a:b => _\n a:b:c ;\n', 5),
    ]
    for source, line in sources:
        with pytest.raises(ParseError,
                           match=rf"^x\.twol:{line}: more than one ':'"):
            twol.parse_twol(source, filename="x.twol")


def test_lexer_errors_name_their_file():
    with pytest.raises(ParseError,
                       match=r"^r\.twol:4: unterminated rule name quote"):
        twol.parse_twol('Alphabet\n a ;\nRules\n"R a => _ ;\n',
                        filename="r.twol")
