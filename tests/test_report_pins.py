"""The report contract: for fixed inputs, every report is byte-identical
apart from wall time.

Each output below is hashed with SHA-256 after `runtime_ms` is dropped and
compared with a pinned table.  The pins are regression pins, not
correctness values: they were recorded from the package itself, and other
tests check the values against oracles.  A change that alters an output on
purpose updates its pin and says which and why.  Run this file as a script
to print the table for the code at hand:

    PYTHONPATH=src python tests/test_report_pins.py
"""

import contextlib
import hashlib
import io
import json

import ellcover as ec
from ellcover.cli import main

# (q, ell, genus, samples, seed, labeling)
MONTE_CARLO = [
    (3, 5, 20, 60, 7, "least"),
    (3, 5, 36, 60, 11, "greatest"),
    (5, 3, 10, 40, 3, "least"),
    (5, 3, 30, 40, 8, "greatest"),
    (2, 3, 30, 200, 42, "least"),
    (2, 3, 30, 200, 42, "greatest"),
    (9, 5, 20, 60, 7, "least"),
    (7, 5, 12, 20, 2, "least"),
    (11, 3, 10, 20, 4, "least"),
    (13, 7, 12, 20, 6, "least"),
    (19, 5, 8, 20, 9, "least"),
    (23, 3, 6, 20, 5, "least"),
    (2, 5, 60, 60, 5, "least"),
    (2, 7, 93, 60, 13, "greatest"),
    (4, 5, 20, 60, 7, "least"),
    (8, 3, 20, 40, 2, "greatest"),
    (4, 7, 21, 40, 3, "greatest"),
    (16, 17, 16, 20, 4, "least"),
]
# (q, ell, genus) for the README regimes at small genus
EXHAUSTIVE = [
    (2, 3, 4), (2, 3, 8), (2, 3, 20), (3, 5, 4), (3, 5, 12), (5, 3, 4),
    (5, 3, 10), (4, 5, 8), (3, 11, 15), (4, 7, 12), (3, 7, 12), (2, 5, 12),
    (2, 7, 12), (2, 11, 40), (2, 13, 60),
]
COMMANDS = [
    ["info", "--q", "2", "--ell", "3"],
    ["info", "--q", "3", "--ell", "5", "--json"],
    ["info", "--q", "9", "--ell", "5"],
    ["info", "--q", "23", "--ell", "3"],
    ["count-points", "--q", "2", "--ell", "3", "--tuple", "1,1,1;1", "--b", "2"],
    ["count-points", "--q", "2", "--ell", "3", "--tuple", "1,1,1;1", "--b", "2",
     "--labeling", "greatest"],
    ["count-points", "--q", "3", "--ell", "5", "--tuple", "1,0,1,1,1;1;1,0,1,2,1;1",
     "--b", "7", "--json"],
    ["count-points", "--q", "5", "--ell", "3", "--tuple", "1,1,1;2,0,1", "--b", "3",
     "--labeling", "greatest"],
    ["count-points", "--q", "9", "--ell", "5", "--tuple", "1,4,1;1;1;1,5,1", "--b", "5"],
    ["count-points", "--q", "3", "--ell", "11", "--tuple", "1,0,0,0,2,1;1;1;1;1;1;1;1;1;1",
     "--b", "2"],
    ["count-points", "--q", "4", "--ell", "5", "--tuple", "2,1,1;1;1;1", "--b", "3"],
    ["count-points", "--q", "8", "--ell", "3", "--tuple", "1,1,1;1", "--b", "5",
     "--labeling", "greatest"],
    ["lseries", "--q", "5", "--ell", "3", "--points", "0,1,2", "--w", "1,1,1"],
    ["lseries", "--q", "3", "--ell", "5", "--points", "0,1", "--w", "1,1", "--json"],
    ["enumerate", "--q", "2", "--ell", "3", "--degree", "6", "--count-only"],
    ["enumerate", "--q", "3", "--ell", "5", "--degree", "8", "--count-only"],
    ["enumerate", "--q", "5", "--ell", "3", "--degree", "4", "--count-only"],
]
# regimes of the g_series and count_constrained values, each at degree D
SERIES = [(2, 3, 12), (3, 5, 12), (5, 3, 6), (4, 5, 6), (3, 7, 12), (2, 5, 12)]


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _drop_runtime(text: str) -> str:
    head, _, body = text.partition("\n")
    report = json.loads(body)
    report.pop("runtime_ms")
    return f"{head}\n{json.dumps(report, sort_keys=True)}"


def outputs() -> dict[str, str]:
    """Every pinned output by name, runtime_ms dropped."""
    out = {}
    for q, ell, g, samples, seed, labeling in MONTE_CARLO:
        out[f"monte-carlo {q},{ell} g={g} n={samples} seed={seed} {labeling}"] = \
            _drop_runtime(_run([
                "ensemble", "--q", str(q), "--ell", str(ell), "--genus", str(g),
                "--mode", "monte-carlo", "--samples", str(samples),
                "--seed", str(seed), "--labeling", labeling, "--json"]))
    for q, ell, g in EXHAUSTIVE:
        out[f"exhaustive {q},{ell} g={g}"] = _drop_runtime(_run([
            "ensemble", "--q", str(q), "--ell", str(ell), "--genus", str(g),
            "--json"]))
    for argv in COMMANDS:
        out[" ".join(argv)] = _run(argv)
    for q, ell, D in SERIES:
        reg = ec.make_regime(q, ell)
        pts = [reg.base.elem(v) for v in (0, 1)]
        b = reg.ext.elem(reg.ext.generator)
        rows = [ec.g_series(reg, pts, w, D) for w in ((1, 0), (1, 1), (1, ell - 1))]
        rows += [[ec.count_constrained(reg, D, pts, (s, t), b) for t in range(ell)]
                 for s in range(ell)]
        out[f"g_series+count_constrained {q},{ell} D={D}"] = repr(rows)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


PINS = {
    'monte-carlo 3,5 g=20 n=60 seed=7 least':
        '73d9ab592de821102fded726cf5a87757e1006a044aa9e5fec9b89590710c508',
    'monte-carlo 3,5 g=36 n=60 seed=11 greatest':
        '89d0e8e0584ee032a6df783a7cde808ee90985f79ec532431e30eb0464fa6651',
    'monte-carlo 5,3 g=10 n=40 seed=3 least':
        'c06f8b2c7618340b6f54583d06c9a05897a1e2bbf8c2f6f0bd7a404400e4dfa4',
    'monte-carlo 5,3 g=30 n=40 seed=8 greatest':
        '6c05db0c08343fcf1d07965d26b9c194b2cb121096b4b940bf0b8febc113db0c',
    'monte-carlo 2,3 g=30 n=200 seed=42 least':
        'ec8b503ffcb547c97a250186e2ae3dfad5805993626b603ed8ad135798ac9527',
    'monte-carlo 2,3 g=30 n=200 seed=42 greatest':
        'ba5013da42436fed7157eccf3a478a33ab77429e4f683538cf21b2a1009a93e8',
    'monte-carlo 9,5 g=20 n=60 seed=7 least':
        '8be96d985c4cdd3adb6e27dbe0caf0e81388db66d3c0b9bd2f8c689908e92458',
    'monte-carlo 7,5 g=12 n=20 seed=2 least':
        '170e328abd09a20828bc899270833fbdb6cc2beb188c2cf7a9b53c1b036be58a',
    'monte-carlo 11,3 g=10 n=20 seed=4 least':
        '45bd6fbe35225c611c6aa84fcc93fa5613bd38e0053c8d8668d74d14469fee2a',
    'monte-carlo 13,7 g=12 n=20 seed=6 least':
        '2a2df0ab5c2a768bd232744b39676009a128f43ab607d7457e8358b33d8cc14d',
    'monte-carlo 19,5 g=8 n=20 seed=9 least':
        '8db77f8757ce0a10f093bd70c4294e5695971416431770d3b2640fd1ef9ad4c8',
    'monte-carlo 23,3 g=6 n=20 seed=5 least':
        '84b28b1bc504f0e746dc158f7536a30dc6dfe016b68f02cf4b0d4d35dbdf5649',
    'monte-carlo 2,5 g=60 n=60 seed=5 least':
        '248997c70548f6273583bba0f74cf43334dc7a549dad2922233638524873ba3a',
    'monte-carlo 2,7 g=93 n=60 seed=13 greatest':
        'bbf2dd0d204c192ef632ec964305c9135498b945392facf74fa02e8788ef0b11',
    'monte-carlo 4,5 g=20 n=60 seed=7 least':
        '7a9a84944d63369eae9829387ba41cb7c514c0ed143f83d0e1a9217966d0ca14',
    'monte-carlo 8,3 g=20 n=40 seed=2 greatest':
        'a2ad58d8210fad51a51890f41ca14d84ba5ee1b31325ff158dbf6ade3c3f41e2',
    'monte-carlo 4,7 g=21 n=40 seed=3 greatest':
        '73d5c7543ab31fd8c2a9c273e80600a08511384fd643192595355f24c41c23eb',
    'monte-carlo 16,17 g=16 n=20 seed=4 least':
        '83b0ac5c84105f521493f6b2a9b44790fed920dcd3565175cfe0996d523d34d6',
    'exhaustive 2,3 g=4':
        '06bc6915bf1f115e042557132e55e43cc6ae551bde241827b4430a2672573f91',
    'exhaustive 2,3 g=8':
        '47aaa27c166b304bb23ad4d093138b1d1fe5aa4cb0f9cfb86d55145ae3406d9b',
    'exhaustive 2,3 g=20':
        'cf0306aa4fba00e218a67f115f08dedf203939738732622f896e4891398c7a40',
    'exhaustive 3,5 g=4':
        '222b7623fced95850c6bb74d0dcc5e41c1ee4691e27c0acc0545fe5187b7b9fc',
    'exhaustive 3,5 g=12':
        '0653cf98c7bdf0adba77e7a57760862de4c79f428175124a12a534b2b24b56f4',
    'exhaustive 5,3 g=4':
        '60e4896aae24b5ee0b31983a1bfe0f160facbbb1736f29d49de376f6334ba29f',
    'exhaustive 5,3 g=10':
        '0ce4b24f8d0902271406d82594afe85caf6357ae70d115896be1e20fed40826c',
    'exhaustive 4,5 g=8':
        '00424b18d05c570225c6eab8f315260b77495b8ad96fcb35950333500fc2e4cf',
    'exhaustive 3,11 g=15':
        'c07af0dbae6c8c30612accba37d39ad60f2a618d9364ed5ef7ba5b9076227732',
    'exhaustive 4,7 g=12':
        '91f5124c6572ce245a2857b915013e92f83b54368aaabaf4b622abf9a09483af',
    'exhaustive 3,7 g=12':
        '97c1f5b3db6a355b17d5ede9d48ea6e043074f0915e42062802ba9d88e7eb337',
    'exhaustive 2,5 g=12':
        '2a737e5f8dc5b77708da2cbf7ee1d494e5e356c931e644730b71dd71b07514e7',
    'exhaustive 2,7 g=12':
        '8339f0895234383a25752be1a6a8ce7272e4d82e94c12115dcc0f824a04648d1',
    'exhaustive 2,11 g=40':
        '177f9f31f8b84c4a5b445c98982615788c495e6e1e90e10f305e1faba54dbd87',
    'exhaustive 2,13 g=60':
        'c546007a0dd023a89b64157a9d6b32b162a9030e372e3c9c513faad3f0312a31',
    'info --q 2 --ell 3':
        'b1fbdbe9414b203ec874ecd7873fc221148d3f963fba339eef27107576d1d240',
    'info --q 3 --ell 5 --json':
        '00a6eb66714981471bcff41956d0e3ff17094416a952d39452a83cba94aa3f95',
    'info --q 9 --ell 5':
        'b5c9e2428713c8f4a9f4d364957265c8c7be8d9e272ed678137520b6a8f99868',
    'info --q 23 --ell 3':
        '9c955c5a5a2fb61368772739719be3f5541cc70d732cb0bc563718deb0f46275',
    'count-points --q 2 --ell 3 --tuple 1,1,1;1 --b 2':
        '61db07a46ef7930b09b247cc3fbe14cbe541801f1f93105d9d4d879b7f98e468',
    'count-points --q 2 --ell 3 --tuple 1,1,1;1 --b 2 --labeling greatest':
        '1e370dc28c8c9d8f3b414d934252e2760b9a5975b36b27449dac01c088448da9',
    'count-points --q 3 --ell 5 --tuple 1,0,1,1,1;1;1,0,1,2,1;1 --b 7 --json':
        '56315c0a08e652b6901aa062e03931c6dcd0d9cfff136a366dda65c1c8916710',
    'count-points --q 5 --ell 3 --tuple 1,1,1;2,0,1 --b 3 --labeling greatest':
        'ff2cbaccabe09b15e32b191fcfbe1fdec104f357fbaab49b5954cb3cdd829d9b',
    'count-points --q 9 --ell 5 --tuple 1,4,1;1;1;1,5,1 --b 5':
        'df4080df73ef029b9d9b90e2c425e2bf0241f37049a1d6cdda5bc9ee215efa18',
    'count-points --q 3 --ell 11 --tuple 1,0,0,0,2,1;1;1;1;1;1;1;1;1;1 --b 2':
        '8b74e16d476d35a229d7e1ce096abfe164b8dd184819adabf0ba4e1d2a329afc',
    'count-points --q 4 --ell 5 --tuple 2,1,1;1;1;1 --b 3':
        '053831717f8d68889bf7def89a15687eb1aeab1e10b54c912fac82564bf1df1e',
    'count-points --q 8 --ell 3 --tuple 1,1,1;1 --b 5 --labeling greatest':
        '8d925d0f5a108b0a399db3579538e3e092c27dec03042aefdfc9632dcd9e3997',
    'lseries --q 5 --ell 3 --points 0,1,2 --w 1,1,1':
        'e536b92ec3c763b114180f5df87a0adb61ee0b43d25815da64563b829d1deee6',
    'lseries --q 3 --ell 5 --points 0,1 --w 1,1 --json':
        '574c40d08734f0dea1d9782cb55f271a351bf721d3b4cbaad916a4133ec58fbb',
    'enumerate --q 2 --ell 3 --degree 6 --count-only':
        'fb4d79cc72f117d8d4a7fe6e253a997027ad742ad075a92af1d864ee5a165499',
    'enumerate --q 3 --ell 5 --degree 8 --count-only':
        '8ff036d4171972ce1e05bd13761639922c2634e663032f75919535dfed62729e',
    'enumerate --q 5 --ell 3 --degree 4 --count-only':
        '6c6cd2f8ebfa6ea732b8fec469e57a46a6c7533ae07fbb6128f5cd73c497e7f2',
    'g_series+count_constrained 2,3 D=12':
        'cde672af21b33208977355441188a5569f5b5e2abf2c46b911b7c1311b90689b',
    'g_series+count_constrained 3,5 D=12':
        '2d9f62810b74fe09c9adad41e00cb7bab36648e44a5cd466f66bd39737fd3500',
    'g_series+count_constrained 5,3 D=6':
        'bef98a22bfcdbfe9c0d49184ea380cf1d98d65c3a19b1bf77b3c7621633af5f7',
    'g_series+count_constrained 4,5 D=6':
        'e6db3e3d4c1c7452c2337c5766485677cb9b2ed62d939b22847b7c42fe6232e9',
    'g_series+count_constrained 3,7 D=12':
        'bc651fecd6d1edaa87dc99bc8f9c1ec007f9f5524ed4c00a6e1bcf16615e1f65',
    'g_series+count_constrained 2,5 D=12':
        '7b573f949a1be3352e2caa7042babd505e7cbc9b02eee29654be20ea6dce627f',
}


def test_every_report_matches_its_pin():
    got = {name: digest(text) for name, text in outputs().items()}
    differ = sorted(name for name in PINS.keys() | got.keys()
                    if got.get(name) != PINS.get(name))
    assert not differ, "reports that differ from their pins: " + "; ".join(differ)


if __name__ == "__main__":
    print("PINS = {")
    for name, text in outputs().items():
        print(f"    {name!r}:\n        {digest(text)!r},")
    print("}")
