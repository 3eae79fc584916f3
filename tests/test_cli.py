import os
import pathlib
import subprocess
import sys

import pytest

from mibasis import reductions, textio
from mibasis.cli import main
from mibasis.field import PrimeField
from mibasis.polymat import PolyMatrix


def horner(field, f, x):
    """f(x) in field, by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % field.p
    return acc


DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parents[1] / "src"
GOLDEN = DATA / "example_instance.txt"

F97 = PrimeField(97)

EXPECTED_POPOV = PolyMatrix.from_entries(
    F97,
    [
        [[82, 40, 1], [76], []],
        [[13, 3], [57, 1], []],
        [[96], [96], [1]],
    ],
)


def read_polymat(path, skip=0):
    doc = textio.parse_document(pathlib.Path(path).read_text())
    return textio.polymat_from_section(doc.section("polymat", skip), doc.field())


def test_golden_file_round_trip_is_byte_identical():
    text = GOLDEN.read_text()
    doc = textio.parse_document(text)
    assert textio.serialize_document(doc) == text


def test_golden_file_parses_to_fixture_values():
    doc = textio.parse_document(GOLDEN.read_text())
    assert doc.p == 97
    assert doc.first("mat") == [[27, 49, 29], [50, 58, 0], [77, 10, 29]]
    assert doc.first("jordan") == [(0, 3)]
    assert doc.first("shift") == [0, 0, 0]


def test_composite_prime_rejected():
    with pytest.raises(textio.ParseError, match="p is not prime"):
        textio.parse_document("field p=91\n")


def test_parse_error_reports_line():
    bad = "field p=97\nmat 2 2\n1 2\n3 x\n"
    with pytest.raises(textio.ParseError, match="line 4"):
        textio.parse_document(bad)


@pytest.mark.parametrize("header", ["polymat -1 2", "jordan -1"])
def test_negative_section_count_is_parse_error(tmp_path, header):
    # a negative count must not move the parser backwards; the child process
    # and its timeout turn a hang into a failure
    inp = tmp_path / "neg.txt"
    inp.write_text(f"field p=7\n{header}\n1;2\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mibasis.cli", "nullspace", str(inp)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "line 2: section" in proc.stderr and "negative count" in proc.stderr


def test_comments_and_blank_lines_ignored():
    text = "# header comment\nfield p=97\n\nshift 2  # trailing\n1 2\n"
    doc = textio.parse_document(text)
    assert doc.first("shift") == [1, 2]


def test_interp_lin_emits_popov_basis(tmp_path):
    out = tmp_path / "basis.txt"
    rc = main(["interp", "--algo", "lin", "--evals", str(GOLDEN), "-o", str(out)])
    assert rc == 0
    assert read_polymat(out) == EXPECTED_POPOV


def test_check_popov_on_emitted_basis(tmp_path, capsys):
    out = tmp_path / "basis.txt"
    assert main(["interp", "--algo", "lin", "--evals", str(GOLDEN), "-o", str(out)]) == 0
    rc = main(["check", "--popov", "--matrix", str(out)])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_interp_engines_agree_via_check_equiv(tmp_path):
    a = tmp_path / "dnc.txt"
    b = tmp_path / "oracle.txt"
    assert main(["interp", "--algo", "dnc", "--evals", str(GOLDEN), "-o", str(a)]) == 0
    assert main(["interp", "--algo", "oracle", "--evals", str(GOLDEN), "-o", str(b)]) == 0
    rc = main(
        [
            "check",
            "--equiv",
            "--matrix", str(a),
            "--matrix2", str(b),
            "--evals", str(GOLDEN),
        ]
    )
    assert rc == 0


def test_interp_deterministic_output(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["interp", "--algo", "dnc", "--evals", str(GOLDEN), "-o", str(a)])
    main(["interp", "--algo", "dnc", "--evals", str(GOLDEN), "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_output_reparses(tmp_path):
    out = tmp_path / "basis.txt"
    main(["interp", "--algo", "oracle", "--evals", str(GOLDEN), "-o", str(out)])
    text = out.read_text()
    doc = textio.parse_document(text)
    assert textio.serialize_document(doc) == text


def test_hermite_pade_subcommand(tmp_path):
    inp = tmp_path / "hp.txt"
    inp.write_text(
        "field p=97\n"
        "polymat 3 1\n"
        "27,49,29\n"
        "50,58\n"
        "77,10,29\n"
        "shift 1\n"
        "3\n"
        "shift 3\n"
        "0 0 0\n"
    )
    out = tmp_path / "basis.txt"
    assert main(["hermite-pade", str(inp), "-o", str(out)]) == 0
    basis = read_polymat(out)
    rc = main(
        [
            "check",
            "--equiv",
            "--matrix", str(out),
            "--matrix2", str(out),
            "--evals", str(GOLDEN),
        ]
    )
    assert rc == 0
    assert basis.nrows == 3


def test_mpade_subcommand(tmp_path):
    inp = tmp_path / "mp.txt"
    inp.write_text(
        "field p=7\n"
        "polymat 2 2\n"
        "1,2;3\n"
        "0,1;5\n"
        "mat 1 2\n"
        "1 2\n"
        "shift 2\n"
        "2 1\n"
    )
    out = tmp_path / "basis.txt"
    assert main(["mpade", str(inp), "-o", str(out)]) == 0
    assert read_polymat(out).nrows == 2


def test_nullspace_subcommand(tmp_path):
    inp = tmp_path / "ns.txt"
    inp.write_text(
        "field p=7\npolymat 2 1\n1\n0,1\nshift 2\n0 1\n"
    )
    out = tmp_path / "n.txt"
    assert main(["nullspace", str(inp), "-o", str(out)]) == 0
    n = read_polymat(out)
    assert n.nrows == 1 and n.ncols == 2


def test_nullspace_of_a_full_rank_matrix_keeps_its_column_count(tmp_path, capsys):
    # the kernel of the identity is 0 x 2, not 0 x 0
    inp = tmp_path / "ns.txt"
    inp.write_text("field p=7\npolymat 2 2\n1;0\n0;1\n")
    assert main(["nullspace", str(inp)]) == 0
    assert capsys.readouterr().out == "field p=7\npolymat 0 2\n"


def test_nullspace_of_a_rank_deficient_matrix_is_a_domain_error(tmp_path, capsys):
    # column 2 is (X + 3) times column 1
    inp = tmp_path / "ns.txt"
    inp.write_text(
        "field p=97\npolymat 4 2\n1,2;3,7,2\n5;15,5\n0,0,1;0,0,3,1\n7,1;21,10,1\n"
        "shift 4\n2 1 3 2\n"
    )
    assert main(["nullspace", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err == "error: input matrix is column rank deficient\n"


def test_shift_change_subcommand(tmp_path):
    inp = tmp_path / "sc.txt"
    inp.write_text(
        "field p=97\n"
        "polymat 3 3\n"
        "0,36,1;0,31;0\n"
        "13,3;57,1;0\n"
        "96;96;1\n"
        "shift 3\n"
        "0 0 0\n"
        "shift 3\n"
        "0 3 6\n"
    )
    out = tmp_path / "r.txt"
    assert main(["shift-change", str(inp), "--with-transform", "-o", str(out)]) == 0
    r = read_polymat(out, 0)
    u = read_polymat(out, 1)
    assert r.nrows == 3 and u.nrows == 3


def test_rs_interp_subcommand(tmp_path):
    pts = tmp_path / "pts.txt"
    rows = [(3, 5), (10, 2), (20, 40), (33, 7)]
    pts.write_text(
        "field p=97\nmat 4 2\n" + "\n".join(f"{x} {y}" for x, y in rows) + "\n"
    )
    out = tmp_path / "q.txt"
    rc = main(
        ["rs-interp", str(pts), "--multiplicity", "1", "--weight", "1",
         "--list-size", "2", "-o", str(out)]
    )
    assert rc == 0
    q = read_polymat(out, 0)
    assert q.nrows == 1 and q.ncols == 2
    for x, y in rows:
        v = (horner(F97, q.rows[0][0], x) + y * horner(F97, q.rows[0][1], x)) % 97
        assert v == 0


def test_multi_interp_subcommand(tmp_path):
    inp = tmp_path / "mv.txt"
    inp.write_text(
        "field p=97\n"
        "mat 2 1\n0\n1\n"          # gamma
        "mat 2 2\n3 5\n10 2\n"     # points (x, y)
        "shift 1\n1\n"             # weights
        "mat 1 2\n0 0\n"           # support of point 1
        "mat 1 2\n0 0\n"           # support of point 2
    )
    out = tmp_path / "mv_out.txt"
    assert main(["multi-interp", str(inp), "-o", str(out)]) == 0
    basis = read_polymat(out)
    assert basis.nrows == 2


def test_domain_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("field p=91\nmat 1 1\n3\n")
    assert main(["interp", "--evals", str(bad)]) == 1


def test_failed_invariant_exit_code_without_traceback(monkeypatch, capsys):
    def broken(*args):
        raise AssertionError("residual does not vanish on the solved half")

    monkeypatch.setattr("mibasis.cli.interpolation_basis", broken)
    assert main(["interp", "--evals", str(GOLDEN)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "internal error: residual does not vanish on the solved half\n"
    assert "Traceback" not in captured.err + captured.out


def test_usage_error_exit_code():
    assert main(["interp"]) == 2
    assert main(["frobnicate"]) == 2


def test_check_missing_companion_flags_is_usage_error(tmp_path):
    out = tmp_path / "basis.txt"
    main(["interp", "--algo", "lin", "--evals", str(GOLDEN), "-o", str(out)])
    assert main(["check", "--interpolant", "--matrix", str(out)]) == 2
    assert main(["check", "--equiv", "--matrix", str(out), "--evals", str(GOLDEN)]) == 2


@pytest.mark.parametrize("mode", ["--interpolant", "--equiv"])
def test_check_rejects_jordan_file_of_another_prime(tmp_path, capsys, mode):
    basis = tmp_path / "basis.txt"
    assert main(["interp", "--algo", "lin", "--evals", str(GOLDEN), "-o", str(basis)]) == 0
    jfile = tmp_path / "j7.txt"
    jfile.write_text("field p=7\njordan 1\n0 3\n")
    capsys.readouterr()
    args = ["check", mode, "--matrix", str(basis), "--evals", str(GOLDEN), "--jordan", str(jfile)]
    if mode == "--equiv":
        args += ["--matrix2", str(basis)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: input files disagree on the field prime\n"
    assert captured.out == ""


def test_dnc_with_dense_mulmat_is_usage_error(tmp_path):
    f = tmp_path / "inst.txt"
    f.write_text("field p=97\nmat 1 2\n1 2\nmat 2 2\n0 1\n0 0\n")
    assert main(["interp", "--algo", "dnc", "--evals", str(f), "--dense-mulmat", str(f)]) == 2


def test_interp_dense_mulmat_lin(tmp_path):
    f = tmp_path / "inst.txt"
    f.write_text("field p=97\nmat 1 2\n1 2\nmat 2 2\n0 1\n0 0\n")
    out = tmp_path / "o.txt"
    assert main(
        ["interp", "--algo", "lin", "--evals", str(f), "--dense-mulmat", str(f), "-o", str(out)]
    ) == 0
    assert read_polymat(out).nrows == 1


@pytest.mark.parametrize(
    "command",
    [["interp", "--algo", algo] for algo in ("lin", "dnc", "oracle")]
    + [["check", "--interpolant"]],
)
def test_column_count_must_match_the_order_of_m(tmp_path, capsys, command):
    # three evaluation columns against a Jordan matrix of order 2: no engine
    # and no check may silently drop the third column
    solved = tmp_path / "two.txt"
    solved.write_text("field p=97\nmat 2 2\n1 2\n4 5\njordan 1\n0 2\n")
    basis = tmp_path / "basis.txt"
    assert main(["interp", "--algo", "lin", "--evals", str(solved), "-o", str(basis)]) == 0
    inst = tmp_path / "three.txt"
    inst.write_text("field p=97\nmat 2 3\n1 2 3\n4 5 6\njordan 1\n0 2\n")
    args = command + ["--evals", str(inst)]
    if command[0] == "check":
        args += ["--matrix", str(basis)]
    capsys.readouterr()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: column count of E must match the order of M\n"
    assert captured.out == ""


def test_column_count_must_match_a_dense_m(tmp_path, capsys):
    f = tmp_path / "inst.txt"
    f.write_text("field p=97\nmat 1 3\n1 2 3\nmat 2 2\n0 1\n0 0\n")
    for algo in ("lin", "oracle"):
        assert main(["interp", "--algo", algo, "--evals", str(f), "--dense-mulmat", str(f)]) == 1
        assert capsys.readouterr().err == "error: column count of E must match the order of M\n"


def test_zero_column_sections_round_trip():
    text = "field p=97\nmat 2 0\npolymat 3 0\njordan 0\n"
    doc = textio.parse_document(text)
    assert doc.first("mat") == [[], []] and doc.first("polymat") == [[], [], []]
    assert textio.serialize_document(doc) == text
    empty = textio.Document(97, [textio.polymat_section(PolyMatrix(F97, [[], []], 0))])
    assert textio.serialize_document(empty) == "field p=97\npolymat 2 0\n"


def test_zero_row_sections_keep_their_column_count():
    text = textio.serialize_document(
        textio.Document(7, [textio.polymat_section(PolyMatrix(PrimeField(7), [], 3))])
    )
    assert text == "field p=7\npolymat 0 3\n"
    doc = textio.parse_document(text + "mat 0 2\n")
    back = textio.polymat_from_section(doc.section("polymat"), doc.field())
    assert (back.nrows, back.ncols) == (0, 3)
    assert textio.serialize_document(doc) == text + "mat 0 2\n"


def test_empty_shift_round_trips():
    text = "field p=7\nshift 0\nmat 1 1\n3\nshift 0\n"
    doc = textio.parse_document(text)
    assert [s.data for s in doc.sections] == [[], [[3]], []]
    assert textio.serialize_document(doc) == text


@pytest.mark.parametrize("algo", ["lin", "dnc", "oracle"])
def test_interp_sigma_zero_prints_identity(tmp_path, capsys, algo):
    # no interpolation conditions: the identity is the basis
    f = tmp_path / "empty.txt"
    f.write_text("field p=97\nmat 2 0\njordan 0\n")
    assert main(["interp", "--algo", algo, "--evals", str(f)]) == 0
    assert capsys.readouterr().out == "field p=97\npolymat 2 2\n1;0\n0;1\n"


def test_bench_multipoint_shape(capsys):
    args = ["bench", "--sizes", "8,16", "--m", "2", "--shape", "multipoint"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "engine,m,sigma,seconds"
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == [
        f"{e},2,{s}" for s in (8, 16) for e in ("dnc", "lin", "oracle")
    ]
    # sigma distinct nonzero points need sigma < p
    assert main(args + ["--field", "7"]) == 1
    assert "sigma < p" in capsys.readouterr().err


def test_bench_rs_list_shape(capsys):
    # sigma // 3 points of multiplicity 2: the lines give the sigma solved and
    # the list size m of the builder, whatever --m says
    args = ["bench", "--sizes", "26,48", "--m", "2", "--shape", "rs-list"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "engine,m,sigma,seconds"
    ms = {s: reductions.guruswami_sudan_list_size(s, 15) for s in (24, 48)}
    assert ms == {24: 2, 48: 3}
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == [
        f"{e},{ms[s]},{s}" for s in (24, 48) for e in ("dnc", "lin", "oracle")
    ]
    assert main(args + ["--field", "3", "--sizes", "12"]) == 1
    assert "sigma // 3 <= p" in capsys.readouterr().err


def test_bench_dense_shape_and_repeats(capsys):
    # the dense shape times lin and oracle only; --repeats prints one median
    # per (engine, sigma) in the same columns
    args = ["bench", "--sizes", "8,16", "--m", "2", "--shape", "dense", "--repeats", "3"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "engine,m,sigma,seconds"
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == [
        f"{e},2,{s}" for s in (8, 16) for e in ("lin", "oracle")
    ]
    assert all(float(ln.rsplit(",", 1)[1]) >= 0 for ln in lines[1:])
    # dnc needs a Jordan matrix, and a median needs at least one run
    assert main(args + ["--engines", "dnc,lin"]) == 2
    assert "dnc" in capsys.readouterr().err
    assert main(["bench", "--sizes", "8", "--repeats", "0"]) == 2
    assert "--repeats" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, where",
    [
        (["--m", "0"], "--m"),
        (["--m", "-2"], "--m"),
        (["--sizes", "0"], "--sizes"),
        (["--sizes", "8,-4"], "--sizes"),
        (["--sizes", "8,x"], "--sizes"),
        (["--sizes", "1.5"], "--sizes"),
        (["--shape", "rs-list", "--sizes", "2"], "rs-list"),
        (["--shape", "rs-list", "--sizes", "12,2"], "rs-list"),
    ],
)
def test_bench_usage_errors(capsys, args, where):
    # bad --m and --sizes are usage errors, reported before the CSV header
    assert main(["bench", "--engines", "dnc"] + args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error:") and where in err


# The file-or-bundle rule.  A flag that names a file reads the first section
# of its kind there, after checking that the file has the input's prime;
# without the flag the bundled document's section of that kind is read at a
# fixed index.  Each flag path must print the bundled layout's bytes.

EVALS_3 = "mat 3 3\n27 49 29\n50 58 0\n77 10 29\n"
HP_MAT = "polymat 3 1\n27,49,29\n50,58\n77,10,29\n"
MP_HEAD = "polymat 2 2\n1,2;3\n0,1;5\nmat 1 2\n1 2\n"
NS_MAT = "polymat 3 1\n1,2\n0,1\n5\n"
SC_MAT = "polymat 3 3\n0,36,1;0,31;0\n13,3;57,1;0\n96;96;1\n"
RED_MAT = "polymat 2 2\n0,1;1\n1;0\n"  # reduced at shift (0, 5), not at (0, 0)

# (command, bundled document, document read beside the flags, {flag: file
# body}); IN stands for the document's path
FLAG_PATHS = [
    (["interp", "--algo", algo, "--evals", "IN"],
     EVALS_3 + "jordan 1\n0 3\nshift 3\n1 0 2\n", EVALS_3 + "jordan 1\n0 3\n",
     {"--shift": "shift 3\n1 0 2\n"})
    for algo in ("dnc", "lin", "oracle")
] + [
    (["interp", "--evals", "IN"],
     EVALS_3 + "jordan 1\n0 3\nshift 3\n1 0 2\n", EVALS_3 + "shift 3\n1 0 2\n",
     {"--jordan": "jordan 1\n0 3\n"}),
    (["interp", "--evals", "IN"],
     EVALS_3 + "jordan 1\n0 3\nshift 3\n1 0 2\n", EVALS_3,
     {"--jordan": "jordan 1\n0 3\n", "--shift": "shift 3\n1 0 2\n"}),
    (["hermite-pade", "IN"],
     HP_MAT + "shift 1\n3\nshift 3\n1 0 2\n", HP_MAT + "shift 3\n1 0 2\n",
     {"--orders": "shift 1\n3\n"}),
    (["hermite-pade", "IN"],
     HP_MAT + "shift 1\n3\nshift 3\n1 0 2\n", HP_MAT + "shift 1\n3\n",
     {"--shift": "shift 3\n1 0 2\n"}),
    (["hermite-pade", "IN"],
     HP_MAT + "shift 1\n3\nshift 3\n1 0 2\n", HP_MAT,
     {"--orders": "shift 1\n3\n", "--shift": "shift 3\n1 0 2\n"}),
    (["mpade", "IN"],
     MP_HEAD + "shift 2\n2 1\nshift 2\n0 3\n", MP_HEAD + "shift 2\n0 3\n",
     {"--orders": "shift 2\n2 1\n"}),
    (["mpade", "IN"],
     MP_HEAD + "shift 2\n2 1\nshift 2\n0 3\n", MP_HEAD,
     {"--orders": "shift 2\n2 1\n", "--shift": "shift 2\n0 3\n"}),
    (["nullspace", "IN"],
     NS_MAT + "shift 3\n3 1 2\n", NS_MAT, {"--shift": "shift 3\n3 1 2\n"}),
    (["shift-change", "IN", "--with-transform"],
     SC_MAT + "shift 3\n0 0 0\nshift 3\n0 3 6\n", SC_MAT + "shift 3\n0 0 0\n",
     {"--target": "shift 3\n0 3 6\n"}),
    (["shift-change", "IN", "--with-transform"],
     SC_MAT + "shift 3\n0 0 0\nshift 3\n0 3 6\n", SC_MAT + "shift 3\n0 3 6\n",
     {"--shift": "shift 3\n0 0 0\n"}),
    (["shift-change", "IN", "--with-transform"],
     SC_MAT + "shift 3\n0 0 0\nshift 3\n0 3 6\n", SC_MAT,
     {"--shift": "shift 3\n0 0 0\n", "--target": "shift 3\n0 3 6\n"}),
    (["check", "--reduced", "--matrix", "IN"],
     RED_MAT + "shift 2\n0 5\n", RED_MAT, {"--shift": "shift 2\n0 5\n"}),
    (["check", "--reduced", "--matrix", "IN"],
     RED_MAT + "shift 2\n0 0\n", RED_MAT, {"--shift": "shift 2\n0 0\n"}),
]
FLAG_KINDS = {"--shift": "shift", "--orders": "shift", "--target": "shift", "--jordan": "jordan"}


def _run(capsys, args):
    capsys.readouterr()
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _flag_args(tmp_path, command, doc, files, p=97):
    args = [_write(tmp_path, "in.txt", f"field p={p}\n" + doc) if a == "IN" else a for a in command]
    for flag, body in files.items():
        args += [flag, _write(tmp_path, flag.strip("-") + ".txt", body)]
    return args


@pytest.mark.parametrize("command, bundled, doc, files", FLAG_PATHS)
def test_flag_files_give_the_bundled_bytes(tmp_path, capsys, command, bundled, doc, files):
    expected = _run(capsys, _flag_args(tmp_path, command, bundled, {}))
    assert expected[0] in (0, 1) and expected[1] and not expected[2]
    prefixed = {flag: "field p=97\n" + body for flag, body in files.items()}
    assert _run(capsys, _flag_args(tmp_path, command, doc, prefixed)) == expected


@pytest.mark.parametrize("command, bundled, doc, files", FLAG_PATHS)
def test_flag_files_of_another_prime_or_without_the_section(tmp_path, capsys, command, bundled, doc, files):
    for flag in files:
        for body, err in (
            ("field p=7\n" + files[flag], "error: input files disagree on the field prime\n"),
            ("field p=97\nmat 1 1\n0\n", f"error: document has no {FLAG_KINDS[flag]} section (index 0)\n"),
        ):
            bodies = {f: (body if f == flag else "field p=97\n" + b) for f, b in files.items()}
            assert _run(capsys, _flag_args(tmp_path, command, doc, bodies)) == (1, "", err)


def test_mult_file_gives_the_multiplicity_bytes(tmp_path, capsys):
    pts = _write(tmp_path, "pts.txt", "field p=97\nmat 4 2\n3 5\n10 2\n20 40\n33 7\n")
    command = ["rs-interp", pts, "--weight", "1"]
    expected = _run(capsys, command + ["--multiplicity", "2"])
    assert expected[0] == 0 and expected[1]
    mults = _write(tmp_path, "m.txt", "field p=97\nshift 4\n2 2 2 2\n")
    assert _run(capsys, command + ["--mult-file", mults]) == expected
    # the file wins over --multiplicity; uneven multiplicities solve too
    assert _run(capsys, command + ["--multiplicity", "3", "--mult-file", mults]) == expected
    uneven = _write(tmp_path, "u.txt", "field p=97\nshift 4\n1 2 3 1\n")
    assert _run(capsys, command + ["--mult-file", uneven])[0] == 0
    for body, err in (
        ("field p=7\nshift 4\n2 2 2 2\n", "error: input files disagree on the field prime\n"),
        ("field p=97\nmat 1 1\n0\n", "error: document has no shift section (index 0)\n"),
    ):
        bad = _write(tmp_path, "bad.txt", body)
        assert _run(capsys, command + ["--mult-file", bad]) == (1, "", err)


def test_matrix2_of_another_prime_or_without_a_polymat(tmp_path, capsys):
    basis = str(tmp_path / "basis.txt")
    assert main(["interp", "--evals", str(GOLDEN), "-o", basis]) == 0
    command = ["check", "--equiv", "--matrix", basis, "--evals", str(GOLDEN), "--matrix2"]
    assert _run(capsys, command + [basis]) == (0, "ok\n", "")
    for body, err in (
        ("field p=7\npolymat 1 1\n1\n", "error: input files disagree on the field prime\n"),
        ("field p=97\nmat 1 1\n0\n", "error: document has no polymat section (index 0)\n"),
    ):
        bad = _write(tmp_path, "bad.txt", body)
        assert _run(capsys, command + [bad]) == (1, "", err)


@pytest.mark.parametrize(
    "command, doc, files, err",
    [
        # the evaluations come before the shift, the shift before M
        (["interp", "--evals", "IN"], "jordan 1\n0 3\n", {"--shift": "mat 1 1\n0\n"}, "mat"),
        (["interp", "--evals", "IN"], EVALS_3, {"--shift": "mat 1 1\n0\n"}, "shift"),
        (["interp", "--evals", "IN"], EVALS_3, {"--jordan": "mat 1 1\n0\n"}, "jordan"),
        # the orders come before the shift
        (["hermite-pade", "IN"], HP_MAT, {"--shift": "mat 1 1\n0\n"}, "shift"),
        (["hermite-pade", "IN"], "shift 1\n3\n", {"--orders": "mat 1 1\n0\n"}, "polymat"),
        (["mpade", "IN"], "polymat 2 2\n1,2;3\n0,1;5\n", {"--orders": "mat 1 1\n0\n"}, "mat"),
        # the base shift comes before the extra shift
        (["shift-change", "IN"], SC_MAT, {"--shift": "mat 1 1\n0\n", "--target": "shift 3\n0 3 6\n"}, "shift"),
        (["shift-change", "IN"], "shift 3\n0 0 0\n", {"--target": "mat 1 1\n0\n"}, "polymat"),
    ],
)
def test_missing_sections_are_reported_in_read_order(tmp_path, capsys, command, doc, files, err):
    bodies = {flag: "field p=97\n" + body for flag, body in files.items()}
    expected = (1, "", f"error: document has no {err} section (index 0)\n")
    assert _run(capsys, _flag_args(tmp_path, command, doc, bodies)) == expected


def test_a_file_of_another_prime_is_reported_before_a_later_missing_section(tmp_path, capsys):
    # shift-change reads the base shift first, then the extra one
    command = ["shift-change", "IN"]
    other = {"--shift": "field p=7\nshift 3\n0 0 0\n", "--target": "field p=97\nmat 1 1\n0\n"}
    assert _run(capsys, _flag_args(tmp_path, command, SC_MAT, other)) == (
        1, "", "error: input files disagree on the field prime\n")
    other = {"--shift": "field p=97\nmat 1 1\n0\n", "--target": "field p=7\nshift 3\n0 3 6\n"}
    assert _run(capsys, _flag_args(tmp_path, command, SC_MAT, other)) == (
        1, "", "error: document has no shift section (index 0)\n")


@pytest.mark.parametrize("algo", ["lin", "oracle"])
def test_a_dense_m_must_be_square(tmp_path, capsys, algo):
    f = _write(tmp_path, "inst.txt", "field p=97\nmat 2 3\n1 2 3\n4 5 6\nmat 3 4\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    args = ["interp", "--algo", algo, "--evals", f, "--dense-mulmat", f]
    assert _run(capsys, args) == (1, "", "error: a dense multiplication matrix must be square\n")
