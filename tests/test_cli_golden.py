"""Byte-identical CLI output on a golden set of invocations.

Each digest is the sha256 of stdout.  The set covers every subcommand in
every output format, U(3) and U(4) bases, a 3-j symbol at j = 30, the
8 x 8 -> 8 table and an isoscalar factor at multiplicity 2.  The help
texts and the bare usage error are pinned the same way.
"""

import hashlib
import shlex

import pytest

from gtboson import cli

GOLDEN_SHA256 = {
    "patterns --group u3 --label 2,1,0 --format text":
        "e840efc0e6d886bdcf2376eda417cabc784f7a05ff93f648c60b8ccff09e2362",
    "dim --group u4 --label 3,2,1,0 --format text":
        "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc",
    "basis --pattern '2,1,0;2,0;1' --format text":
        "1f5895a9d6d8bf4129764d8ad2804995465587f0dc43d8161b139b74575b17f3",
    "basis --pattern '2,1,1,0;2,1,0;1,1;1' --format text":
        "fe5476d402ee55d91f7832c91cd1d1f8f5ba0cb742c48f7ac4b5658408e2e67b",
    "pn1 --pattern '2,1,0,0;2,1,0;2,0;1' --format text":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "threej --j 1,1,1 --m 1,0,-1 --format text":
        "cf28d3e4e6d06e266584a518003bc917ace0e00e488718d4f6290b27d9d96129",
    "su3cg --labels '1,0,0;1,1,0;2,1,0' --format text":
        "45d66da7ab208072eefe98a2a8aa16582ac0122f4f1483c19b1a5842fa188e46",
    "su3cg --labels '2,1,0;2,1,0;2,1,0' --format text":
        "3e533a1659f2effbcde6cdd9b8d962cf0104855582ed4afd8a674f023cf69bf1",
    "isoscalar --labels '2,1,0;2,1,0;2,1,0' --rows '2,0;2,0;2,0' --rho 2 --format text":
        "9eca9eabb9d284746ba278557d3c0507dedf730dc8a915558f93273ad4132283",
    "selftest --suite generating --format text":
        "0919a38d6ddf09416af171de0d74b386c41d12f4301346520b59adab2d3dff78",
    "patterns --group u3 --label 2,1,0 --format json":
        "b9a12cdd58eba36b87a9e244505e4fd826515c72f9ae69e6357f9b3774035b8c",
    "dim --group u4 --label 3,2,1,0 --format json":
        "674183684d5c75d1d8fd78825f7e837c863c0e27eaf733c95c67ddfeee894bb1",
    "basis --pattern '2,1,0;2,0;1' --format json":
        "244342cc40fb54d7db99191d8039109bcfa93dd499a0970bc00f77536bf88c5b",
    "basis --pattern '2,1,1,0;2,1,0;1,1;1' --format json":
        "db3d75928286cdd79c00545bd2a74cd913e08a5fe506f750f8ad406ddaec0a7f",
    "pn1 --pattern '2,1,0,0;2,1,0;2,0;1' --format json":
        "6e61903f63ebb6e2539eee34fb2fa74cc03a6da4b066b1f3f33754c13ed1591b",
    "threej --j 1,1,1 --m 1,0,-1 --format json":
        "cb0bcd9e656d38d3ac8cbd8be7fe6b962700369eca27566bfcff71eb132f8f0e",
    "su3cg --labels '1,0,0;1,1,0;2,1,0' --format json":
        "1664457cd203113fae62e16d0b023a2bf450e5010f19db47019e7c394e463663",
    "su3cg --labels '2,1,0;2,1,0;2,1,0' --format json":
        "bfdf9fe267046888121b1e3ec7f63bafc089c4e0a58209990ed4f65878a0108f",
    "isoscalar --labels '2,1,0;2,1,0;2,1,0' --rows '2,0;2,0;2,0' --rho 2 --format json":
        "19bc3e6b25ecb3e965ef142b18a95aee2f1549662226e1fbea00caadc57eed87",
    "selftest --suite generating --format json":
        "0919a38d6ddf09416af171de0d74b386c41d12f4301346520b59adab2d3dff78",
    "patterns --group u3 --label 2,1,0 --format csv":
        "a1b9552ef76503f82093e3f3dcdc323c5f6b09a282a9575433a437d3a08921b9",
    "dim --group u4 --label 3,2,1,0 --format csv":
        "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc",
    "basis --pattern '2,1,0;2,0;1' --format csv":
        "1f5895a9d6d8bf4129764d8ad2804995465587f0dc43d8161b139b74575b17f3",
    "basis --pattern '2,1,1,0;2,1,0;1,1;1' --format csv":
        "fe5476d402ee55d91f7832c91cd1d1f8f5ba0cb742c48f7ac4b5658408e2e67b",
    "pn1 --pattern '2,1,0,0;2,1,0;2,0;1' --format csv":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "threej --j 1,1,1 --m 1,0,-1 --format csv":
        "cf28d3e4e6d06e266584a518003bc917ace0e00e488718d4f6290b27d9d96129",
    "su3cg --labels '1,0,0;1,1,0;2,1,0' --format csv":
        "2c85eeb88f3dd92c6e83bae47c98d399d2611d4e4da193cb2b057b601216147a",
    "su3cg --labels '2,1,0;2,1,0;2,1,0' --format csv":
        "cb2e4ee89a33f81f145d1badc01e5b7e8b2c6bdd91067d0e29beefb290358cfe",
    "isoscalar --labels '2,1,0;2,1,0;2,1,0' --rows '2,0;2,0;2,0' --rho 2 --format csv":
        "9eca9eabb9d284746ba278557d3c0507dedf730dc8a915558f93273ad4132283",
    "selftest --suite generating --format csv":
        "0919a38d6ddf09416af171de0d74b386c41d12f4301346520b59adab2d3dff78",
    "threej --j 30,30,30 --m 10,-20,10":
        "3525327d29099fc7fb2007d83261857335e46f5a346ac946152b0b2d2c84a9bc",
}


@pytest.mark.parametrize("command", list(GOLDEN_SHA256))
def test_stdout_digest(capsys, command):
    assert cli.run(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


# sha256 of the text that --help prints (stdout, exit 0) for the program and
# each command, and of the usage error that a bare `gtboson` prints (stderr,
# exit 2), at 80 columns
HELP_SHA256 = {
    "--help":
        "ef2419d9c315f0746d8dfa899baa4f3c16c2f6e722728ede343ef5733b6ee541",
    "patterns --help":
        "ee0ac17b4ca4d74ca8036a8a8f2bf3eb07c86ebed2bb7c0bfb1063a0cddb3a0b",
    "dim --help":
        "e3c3b2197d5872b4b995e09d7d01d22256f10eef72cfe33e1d63568c214906bf",
    "basis --help":
        "c10b4a80a54f0673de0ed6330abbf692e587378e5f9196e176a4b5b75ca8e67e",
    "pn1 --help":
        "63bc1ce79a28ffb83372c3e974426e6ebb8592d00d0f92847ff292475aab707c",
    "threej --help":
        "713505271c838514f4b3909d4e3713d06ed091c0174ca9cd8137c2f42d8640f1",
    "su3cg --help":
        "7e5bfae02e1e936a5fb2b98469e43a79d8a3afbb695b31a14c1a479522d64840",
    "isoscalar --help":
        "550d99872433ff8bf3d60e5d1cf2fcd52d2e877106e6b05981d9d6488da597b2",
    "selftest --help":
        "08095704a05e3c2cff0670a96ceeb1fdf3f772d3e7037aac12e8cd160c83f907",
    "":
        "9fe3eddfc89556bbb99c0749419f2ec92faf9604e08cf5340abafb8a4f0e1ae1",
}


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.run(shlex.split(command))
    out = capsys.readouterr()
    text = out.out if command else out.err
    assert code == (0 if command else 2)
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command]
