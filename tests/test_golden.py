"""Pinned bytes of every report: the SHA-256 of what each corpus command
writes, compared with a digest recorded beside it.

The corpus is the benchmark workloads' commands at seeds 0 and 4242,
written out here so that a change to the benchmark does not move them,
plus one command of each kind in the human format and one all-c report
of many entries.  A command with
--matrix-out also pins the CSV it writes; it runs in an empty directory
with a fixed relative path, because the report names the path.  A change that moves report
bytes on purpose prints the new digests with

    PYTHONPATH=src python tests/test_golden.py

pastes them over DIGESTS, and says which moved and why.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from cdu import cli

CORPUS = [
    # analyze-odd, seed 0
    ["analyze", "--field", "3^5", "--function", "x^4"],
    ["analyze", "--field", "3^6", "--function", "x^32 + x^5 + 2*x", "--c-scope", "2"],
    ["analyze", "--field", "3^7", "--function", "151*x^53 + x^15 + x", "--c-scope", "1"],
    ["construct", "--recipe", '{"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "18*x^57 + 30*x^47", "h_or_b": 2, "kind": "f1"}'],
    # analyze-char2, seed 0
    ["analyze", "--field", "2^9", "--function", "x^17", "--matrix-c", "381", "--matrix-out", "ddt.csv"],
    ["analyze", "--field", "2^10", "--function", "x^43 + x^11 + x", "--c-scope", "5"],
    ["analyze", "--field", "2^12", "--function", "1720*x^61 + x^12", "--c-scope", "3"],
    ["construct", "--recipe", '{"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "x^12 + 60*x^5", "h_or_b": 1, "kind": "f1"}'],
    # tower, seed 0
    ["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "26", "--rmax", "4"],
    ["monomial", "--p", "5", "--h", "2", "--d", "3", "--c", "18", "--rmax", "4"],
    ["monomial", "--p", "7", "--h", "2", "--d", "5", "--c", "28", "--rmax", "3"],
    # verify, seed 0
    ["verify-theorems", "--seed", "0"],
    ["construct", "--recipe", '{"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "5*x^3 + 5*x^2", "h_or_b": 1, "kind": "f1"}'],
    ["construct", "--recipe", '{"theorem": "pcn1", "q": 5, "n": 2, "phi": "x", "g": "2*x^17 + 2*x^14", "h_or_b": 2, "kind": "f2"}'],
    ["construct", "--recipe", '{"theorem": "apcnagw", "q": 2, "n": 5, "phi": "x^2 + x", "g": "28*x^6 + 8*x", "h_or_b": 1, "kind": "f1"}'],
    ["construct", "--recipe", '{"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "34*x^11 + 24*x^3", "h_or_b": 1, "kind": "f1"}'],
    # analyze-odd, seed 4242
    ["analyze", "--field", "3^5", "--function", "x^13"],
    ["analyze", "--field", "3^6", "--function", "x^36 + 2*x^17 + x", "--c-scope", "2"],
    ["analyze", "--field", "3^7", "--function", "2170*x^58 + x^18 + 50*x", "--c-scope", "1"],
    ["construct", "--recipe", '{"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "22*x^58 + 70*x^23", "h_or_b": 1, "kind": "f2"}'],
    # analyze-char2, seed 4242
    ["analyze", "--field", "2^9", "--function", "x^33", "--matrix-c", "64", "--matrix-out", "ddt.csv"],
    ["analyze", "--field", "2^10", "--function", "x^44 + x^7 + x", "--c-scope", "5"],
    ["analyze", "--field", "2^12", "--function", "2118*x^53 + x^8", "--c-scope", "3"],
    ["construct", "--recipe", '{"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "49*x^62 + 52*x^48", "h_or_b": 1, "kind": "f1"}'],
    # tower, seed 4242
    ["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "12", "--rmax", "4"],
    ["monomial", "--p", "5", "--h", "2", "--d", "3", "--c", "19", "--rmax", "4"],
    ["monomial", "--p", "7", "--h", "2", "--d", "5", "--c", "48", "--rmax", "3"],
    # verify, seed 4242
    ["verify-theorems", "--seed", "4242"],
    ["construct", "--recipe", '{"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "7*x^3 + 4*x", "h_or_b": 2, "kind": "f1"}'],
    ["construct", "--recipe", '{"theorem": "pcn1", "q": 5, "n": 2, "phi": "x", "g": "4*x^23 + 13*x^15", "h_or_b": 3, "kind": "f2"}'],
    ["construct", "--recipe", '{"theorem": "apcnagw", "q": 2, "n": 5, "phi": "x^2 + x", "g": "3*x^10 + 18*x^8", "h_or_b": 1, "kind": "f1"}'],
    ["construct", "--recipe", '{"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "35*x^47 + 54*x^19", "h_or_b": 1, "kind": "f1"}'],
    # the human format, one command of each kind
    ["analyze", "--field", "3^5", "--function", "x^4", "--format", "human"],
    ["construct", "--recipe", '{"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "18*x^57 + 30*x^47", "h_or_b": 2, "kind": "f1"}', "--format", "human"],
    ["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "26", "--rmax", "4", "--format", "human"],
    ["verify-theorems", "--seed", "0", "--format", "human"],
    # an all-c report of 4,096 entries, which the writer renders in many blocks
    ["analyze", "--field", "2^12", "--function", "x^7"],
]

# SHA-256 of stdout, and of each file a command writes, keyed by the command
DIGESTS = {
    'analyze --field 3^5 --function x^4':
        {'stdout': '4d763cc533e698ea6def8f35f0a24809cfdbedf2f88bf67f383ce16f02a6d740'},
    'analyze --field 3^6 --function x^32 + x^5 + 2*x --c-scope 2':
        {'stdout': '76d791cf5337da16a12172904a27e31c7e948165861b66aea0c8f6159312e3a7'},
    'analyze --field 3^7 --function 151*x^53 + x^15 + x --c-scope 1':
        {'stdout': 'b70d52ca1901b991d9fdf28f27ddcf839c09fe587753a0d73751988dcf1e0d77'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "18*x^57 + 30*x^47", "h_or_b": 2, "kind": "f1"}':
        {'stdout': '2efbadc276fd1a0473f6be38a5722883ce61531b6d6d00b6db2cc45705ed2273'},
    'analyze --field 2^9 --function x^17 --matrix-c 381 --matrix-out ddt.csv':
        {'stdout': 'a5624d31c66ffee7ce05b06e61687fbd943f93edab31ffdb999f04cbf4bf1305', 'ddt.csv': '23dbb0adceca6d21ec5e3d3547302adffb5faa33a650e48ab36afbed6d56002f'},
    'analyze --field 2^10 --function x^43 + x^11 + x --c-scope 5':
        {'stdout': 'fbcfdfec4a027b0d0ff5e965b7b654ebe59b32c323efba660b6de6b2c03ed39b'},
    'analyze --field 2^12 --function 1720*x^61 + x^12 --c-scope 3':
        {'stdout': 'c103d182e5db4b57f594fcadb4e26179db626d591791d2d5e29f7885b7f9e291'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "x^12 + 60*x^5", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '814b8574094435c79512c424dd28a16dda2d768b256ec5a3217f5904fcee2db6'},
    'monomial --p 3 --h 3 --d 5 --c 26 --rmax 4':
        {'stdout': '41fac94e9401b572c8b10ab29a5b80c471aa5d89b07a833d48cb06fda971c785'},
    'monomial --p 5 --h 2 --d 3 --c 18 --rmax 4':
        {'stdout': 'cd3f8951a41245c4a0268deeacdbe09ca6b369093e1487092a9285d9b853eec6'},
    'monomial --p 7 --h 2 --d 5 --c 28 --rmax 3':
        {'stdout': '13ca9d2e6bf6c2debd5f101895b3a95afc2d9838938900dc51a9deda41da977c'},
    'verify-theorems --seed 0':
        {'stdout': '7150cf3e32e5a5418dd65b0a2cb469ba546f7beb21cf7b6bfed9ab8ea5f077e1'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "5*x^3 + 5*x^2", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '889895270e16f6690954c9bb1a6d0b75367ee05fe0da947ebafd327fb1c0eb97'},
    'construct --recipe {"theorem": "pcn1", "q": 5, "n": 2, "phi": "x", "g": "2*x^17 + 2*x^14", "h_or_b": 2, "kind": "f2"}':
        {'stdout': 'a6ae9e1b10126545016964193f189bfbde313053408154cfc4313e5da841c12e'},
    'construct --recipe {"theorem": "apcnagw", "q": 2, "n": 5, "phi": "x^2 + x", "g": "28*x^6 + 8*x", "h_or_b": 1, "kind": "f1"}':
        {'stdout': 'b3a9b72b140099dc92dad99b6a0c3c582f10682a7cb3707e0d4511173e195347'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "34*x^11 + 24*x^3", "h_or_b": 1, "kind": "f1"}':
        {'stdout': 'eca8bd57a91fecd3bf0c454dd732b634f90a527ef79290db7e9f85c76340d8bb'},
    'analyze --field 3^5 --function x^13':
        {'stdout': '5e61db1138425ae018db4e32deea93470c1dcce03ce5f18ecefa2746c08047c8'},
    'analyze --field 3^6 --function x^36 + 2*x^17 + x --c-scope 2':
        {'stdout': 'a5a6545e06333145e467b91bcf19149d987d39c5765f73a78f7e86ececf4085b'},
    'analyze --field 3^7 --function 2170*x^58 + x^18 + 50*x --c-scope 1':
        {'stdout': '47a12cf8cbe770f4e65d6f65be10c151bf68e3ac5b566533d7f6ad82181597f8'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "22*x^58 + 70*x^23", "h_or_b": 1, "kind": "f2"}':
        {'stdout': 'd4ac4c327729479b9de274f4304e0978c502c2dd75a9708c486e05dc28982ed4'},
    'analyze --field 2^9 --function x^33 --matrix-c 64 --matrix-out ddt.csv':
        {'stdout': '4ddcb45a811f64dd1cc3b5c03e7e83c6b7e1c630e02cb5c29dae8376f3f2d26d', 'ddt.csv': '3d57d543936f5192a06aa23111fb79fa5f499a8b37fc776ef8bd12d679b89012'},
    'analyze --field 2^10 --function x^44 + x^7 + x --c-scope 5':
        {'stdout': 'a5d7e1c5228587e13c4a266bdc10516748884571d48c3b2b2f40d5ed315c98ce'},
    'analyze --field 2^12 --function 2118*x^53 + x^8 --c-scope 3':
        {'stdout': '3486b55b71dd6ab23532c57410f0ff9c3bb04314126ab69f46d42ca3ff41c542'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "49*x^62 + 52*x^48", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '942800f875fc37e8626150a2694bdf08a24b3228a1d18304068eb501e94953bf'},
    'monomial --p 3 --h 3 --d 5 --c 12 --rmax 4':
        {'stdout': '1348eb35cf8cf9d4699d64433a0247047c19e03a6bffb391023540c13816250e'},
    'monomial --p 5 --h 2 --d 3 --c 19 --rmax 4':
        {'stdout': '91aee9df3aa8c824c71d7a2d3da9dfb328f37a1590779ea6e04ea7845cd7a8c8'},
    'monomial --p 7 --h 2 --d 5 --c 48 --rmax 3':
        {'stdout': '8c58edb5b47bb50ad7b7100ba01637e7979dace8e67543ac8cc0998852ceef19'},
    'verify-theorems --seed 4242':
        {'stdout': 'd04d77c2fbad7bf6c09ddf672c651c28ebd80c797f5910a515444a7113755a96'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "7*x^3 + 4*x", "h_or_b": 2, "kind": "f1"}':
        {'stdout': 'e76a39472bb4490fa2ca6ce704d7103db527fffb952c3f52c62c018746ee18e2'},
    'construct --recipe {"theorem": "pcn1", "q": 5, "n": 2, "phi": "x", "g": "4*x^23 + 13*x^15", "h_or_b": 3, "kind": "f2"}':
        {'stdout': 'dba27ed72a1fc54d76634e39bc251ae32615e2c9b0517643f072440663e52453'},
    'construct --recipe {"theorem": "apcnagw", "q": 2, "n": 5, "phi": "x^2 + x", "g": "3*x^10 + 18*x^8", "h_or_b": 1, "kind": "f1"}':
        {'stdout': 'd29611784d9f9d15eac0a31399ecf36ce80fb1b2a230ed3ceea1f850276652f2'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "35*x^47 + 54*x^19", "h_or_b": 1, "kind": "f1"}':
        {'stdout': 'a53cf1259284e18cb78c70b968e683217d49996f8ea60004d83039de331feb02'},
    'analyze --field 3^5 --function x^4 --format human':
        {'stdout': '0318fe9f23e6e859df7925c577ae0993d0365b559c4b93d9e4ebfc5d3e67095e'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "18*x^57 + 30*x^47", "h_or_b": 2, "kind": "f1"} --format human':
        {'stdout': '91eabdfa75bff58b86be2a59fb7a6c3457bfc20edd860e39f6433b22ebbabc98'},
    'monomial --p 3 --h 3 --d 5 --c 26 --rmax 4 --format human':
        {'stdout': '90d0153a45d2a4f06a6261dfb56d94670076b6816184479e4823517acec11509'},
    'verify-theorems --seed 0 --format human':
        {'stdout': '52edfc5d9a3a1e7a2ae80657d12db486f047a5e0377842909512ac5035fb6f99'},
    'analyze --field 2^12 --function x^7':
        {'stdout': 'b8037e2efca0e36b7b977b47ad08a23d81b1a93c53bbe58fab89fbbc3b72f03c'},
}


def outputs(argv: list[str]) -> dict[str, str]:
    """The SHA-256 of what cdu writes for argv, run in the current
    directory: stdout, and each file it leaves there by name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    written = {"stdout": out.getvalue().encode()}
    for name in sorted(os.listdir()):
        with open(name, "rb") as fh:
            written[name] = fh.read()
    return {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_report_bytes_are_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert outputs(argv) == DIGESTS[" ".join(argv)], f"the bytes of `cdu {' '.join(argv)}` moved"


if __name__ == "__main__":
    print("DIGESTS = {")
    for argv in CORPUS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            print(f"    {' '.join(argv)!r}:\n        {outputs(argv)!r},")
    print("}")
