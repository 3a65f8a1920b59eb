"""Seeded mutation fuzz of the documents and values the CLI reads: the exit-code contract holds."""

import copy
import json
import random

from hadene.cli import main
from hadene.coeffs import ExactCoeff, GaussianRational, log_symbol
from hadene.continuation import PolylogElement
from hadene.documents import divisor_to_doc, function_spec_to_doc, series_to_doc
from hadene.logpoly import LogLaurentPoly
from hadene.monodromy import Divisor, FunctionSpec, GermPart, Singularity, polylog_function_spec
from hadene.series import TruncatedSeries, polylog_series

CONTRACT = {0, 2, 3, 4, 5}
MUTATIONS = 300

# values of every JSON type, plus the literals the decoders treat specially
REPLACEMENTS = [None, True, False, 0, -1, 3, 2 ** 70, 0.5, -1e300, "", "x", "1/0", "2/3+1/2i",
                "log(2)", "2pii", "polar", "rational", [], [1], [[1, 0]], {}, {"a": 1}]

CLI_MUTATIONS = 120
CLI_OPTIONS = ("--order", "--gamma", "--samples")
# command-line values: numbers of every shape the parsers meet, out of range, huge,
# non-finite, malformed, empty, and option-like
CLI_VALUES = ["", " ", "0", "-1", "1", "2", "8", "3/2", "-2/3", "1+i", "2i", "-2i", "i", "1/0",
              "0/1", "nan", "inf", "-inf", "1e400", "-1e400i", "1e-400", "1e300", "2**70",
              "99999999999999999999", "x", "0.9", "0.92+0.03i", "0.9+0.05j", "1.2", ",",
              "0.9,,0.91", "0.9,x", "--", "-f"]


def _function_doc():
    two_pi_i = ExactCoeff.two_pi_i()
    monodromy = LogLaurentPoly({
        (0, 1): two_pi_i * GaussianRational.of(1, -2),
        (2, 0): ExactCoeff.monomial({log_symbol(3): 1}),
    })
    polar = GermPart.polar_part([GaussianRational.of(1, 1), 2])
    spec = FunctionSpec.of("f", [Singularity(GaussianRational.of(3), monodromy, polar),
                                 Singularity(GaussianRational.of(1, 1), monodromy)],
                           polylog_series(2, 4))
    return function_spec_to_doc(spec)


def _bases():
    """(command line without -f/-g, f document, g document)."""
    li1 = function_spec_to_doc(polylog_function_spec(1))
    li1_element = function_spec_to_doc(polylog_function_spec(1), PolylogElement(1))
    divisor = divisor_to_doc(Divisor.of({GaussianRational.of(2): 1, GaussianRational.of(-1, 1): -2}))
    rational = series_to_doc(polylog_series(1, 6))
    complex_series = series_to_doc(TruncatedSeries([1, 0.5j, -2.0], "complex"), polynomial=True)
    return [
        (["monodromy", "--gamma", "3"], _function_doc(), li1),
        (["monodromy", "--product", "ene", "--gamma", "1"], li1, _function_doc()),
        (["monodromy"], divisor, divisor),
        (["divisor"], divisor, divisor),
        (["series", "--op", "ene", "--order", "8"], rational, rational),
        (["series", "--op", "hadamard", "--order", "8"], complex_series, complex_series),
        (["verify", "--gamma", "1", "--samples", "0.9,0.92+0.03i"], li1_element, li1_element),
    ]


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as stop:  # argparse refuses a malformed option value
        return stop.code


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


def _mutate(doc, rng: random.Random):
    """One random edit: replace, delete or duplicate a node, or corrupt a string."""
    paths = list(_paths(doc))
    path = rng.choice(paths)
    if not path:
        return copy.deepcopy(rng.choice(REPLACEMENTS))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    action = rng.random()
    if action < 0.55:
        parent[last] = copy.deepcopy(rng.choice(REPLACEMENTS))
    elif action < 0.75:
        del parent[last]
    elif action < 0.9 and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    elif isinstance(parent[last], str) and parent[last]:
        text = parent[last]
        pos = rng.randrange(len(text))
        parent[last] = text[:pos] + rng.choice("0-+/i()9") + text[pos + 1:]
    else:
        parent[last] = rng.choice(paths)  # a list of keys, another shape
    return doc


def test_mutated_documents_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(1)
    bases = _bases()
    codes = {}
    for n in range(MUTATIONS):
        command, f_doc, g_doc = bases[n % len(bases)]
        docs = [copy.deepcopy(f_doc), copy.deepcopy(g_doc)]
        side = rng.randrange(2)
        for _ in range(rng.randint(1, 3)):
            if isinstance(docs[side], (dict, list)) and docs[side]:
                docs[side] = _mutate(docs[side], rng)
        f_doc, g_doc = docs
        f_path, g_path = tmp_path / "f.json", tmp_path / "g.json"
        f_path.write_text(json.dumps(f_doc))
        g_path.write_text(json.dumps(g_doc))
        argv = [*command, "-f", str(f_path), "-g", str(g_path)]
        code = main(argv)
        assert code in CONTRACT, (argv, f_doc, g_doc)
        codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
    # the mutations reach both the refusals and the successful paths
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0


def test_mutated_command_line_values_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(2)
    slots = [(command, f_doc, g_doc, index) for command, f_doc, g_doc in _bases()
             for index, arg in enumerate(command) if arg in CLI_OPTIONS]
    assert {slot[0][slot[3]] for slot in slots} == set(CLI_OPTIONS)
    f_path, g_path = tmp_path / "f.json", tmp_path / "g.json"
    codes = {}
    for n in range(CLI_MUTATIONS):
        command, f_doc, g_doc, index = slots[n % len(slots)]
        argv = list(command)
        argv[index + 1] = rng.choice(CLI_VALUES)
        f_path.write_text(json.dumps(f_doc))
        g_path.write_text(json.dumps(g_doc))
        argv += ["-f", str(f_path), "-g", str(g_path)]
        code = _exit_code(argv)
        assert code in CONTRACT, argv
        codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
    # the values reach argparse's refusals, the program's own, and successful runs
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0 and codes.get(3, 0) > 0
