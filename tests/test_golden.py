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
        {'stdout': 'a010db3997bdd00ae84929815f94840551c348e962fc687b124eb73a2f3c4191'},
    'analyze --field 3^6 --function x^32 + x^5 + 2*x --c-scope 2':
        {'stdout': '6bb997c20141491add8a1ae8c1a46470beb4f2f743ab46b7311ddf716037108b'},
    'analyze --field 3^7 --function 151*x^53 + x^15 + x --c-scope 1':
        {'stdout': 'cd1d40d605c521b125a6cc89ff42307c99d77353782ca384aedbfaaed9c001a0'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "18*x^57 + 30*x^47", "h_or_b": 2, "kind": "f1"}':
        {'stdout': '8a315e00498097c852ea176b59810e667cb072184aa0e018ff4011aa22cf1784'},
    'analyze --field 2^9 --function x^17 --matrix-c 381 --matrix-out ddt.csv':
        {'stdout': 'f5f6fea0ce2cc019b1bb91d9d17b85d6c0eda33565b352fd4a7ee01581539e66', 'ddt.csv': '23dbb0adceca6d21ec5e3d3547302adffb5faa33a650e48ab36afbed6d56002f'},
    'analyze --field 2^10 --function x^43 + x^11 + x --c-scope 5':
        {'stdout': 'e051358cf7dc9f9c7c7bd1280fa6a6af055c6186a9718d4204bf392c169e51af'},
    'analyze --field 2^12 --function 1720*x^61 + x^12 --c-scope 3':
        {'stdout': '3f6b2c188b24e8bcfcc7d6511b99789b5a47f8a7a79504fbe19901f325d81ecc'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "x^12 + 60*x^5", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '84a89c96677ddb94b423d2bfb4fa0c3f913d8d1c4daef339b07cb6ce8c7a6f75'},
    'monomial --p 3 --h 3 --d 5 --c 26 --rmax 4':
        {'stdout': '41fac94e9401b572c8b10ab29a5b80c471aa5d89b07a833d48cb06fda971c785'},
    'monomial --p 5 --h 2 --d 3 --c 18 --rmax 4':
        {'stdout': 'cd3f8951a41245c4a0268deeacdbe09ca6b369093e1487092a9285d9b853eec6'},
    'monomial --p 7 --h 2 --d 5 --c 28 --rmax 3':
        {'stdout': '13ca9d2e6bf6c2debd5f101895b3a95afc2d9838938900dc51a9deda41da977c'},
    'verify-theorems --seed 0':
        {'stdout': '7150cf3e32e5a5418dd65b0a2cb469ba546f7beb21cf7b6bfed9ab8ea5f077e1'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "5*x^3 + 5*x^2", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '81cef11b1bafb99e42d7e80058d0b3dc5fac74351167f9874efcd7d3617f72d9'},
    'construct --recipe {"theorem": "pcn1", "q": 5, "n": 2, "phi": "x", "g": "2*x^17 + 2*x^14", "h_or_b": 2, "kind": "f2"}':
        {'stdout': '733ad36d59364d19463b29b1f064b5888c2138cbcfa8cafb832c38f094f80cf9'},
    'construct --recipe {"theorem": "apcnagw", "q": 2, "n": 5, "phi": "x^2 + x", "g": "28*x^6 + 8*x", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '6b71fbb612cccec76e4798e204e4a209fac526d7565bcd4eb3ab61b5ea42e6d2'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "34*x^11 + 24*x^3", "h_or_b": 1, "kind": "f1"}':
        {'stdout': 'c65f33ad799bb66c7a76fb2cfe657c65a187a5e6ed1c1f0e8a0471c239b5e54f'},
    'analyze --field 3^5 --function x^13':
        {'stdout': '73ccbf6177da7d3e064cfcc9fd189712c40035123093bce9e7b0085697590ff1'},
    'analyze --field 3^6 --function x^36 + 2*x^17 + x --c-scope 2':
        {'stdout': '258f95be920e95a4b9b70d939b53b4b9f6297a8b75a165c846fa61beae65056e'},
    'analyze --field 3^7 --function 2170*x^58 + x^18 + 50*x --c-scope 1':
        {'stdout': 'b1d30f8aba8ec0dd7bc3649f73ff699933c450615e38390c9da8abc6dfaee30b'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "22*x^58 + 70*x^23", "h_or_b": 1, "kind": "f2"}':
        {'stdout': '8b361552dfbd7b471af1337729d5edd5a99f8561e6c67cc3b3b7c9a7b2613b75'},
    'analyze --field 2^9 --function x^33 --matrix-c 64 --matrix-out ddt.csv':
        {'stdout': '4b21a84f680698e2c9a4d3e5363c9448b263deca4ff25f5efa326459b80700ef', 'ddt.csv': '3d57d543936f5192a06aa23111fb79fa5f499a8b37fc776ef8bd12d679b89012'},
    'analyze --field 2^10 --function x^44 + x^7 + x --c-scope 5':
        {'stdout': '15cc4f98caa84d279d3c72b20125fa153962404e9f836f93c54c1c42e0861627'},
    'analyze --field 2^12 --function 2118*x^53 + x^8 --c-scope 3':
        {'stdout': '121c3632273604ab8345f9d6a51342e91beef062aec6d5499ad357ddfc4f9fce'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "49*x^62 + 52*x^48", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '5a134955d3dc9ba999c70f0faa37cf3a1b86499131a597dc56aa08112bbc8515'},
    'monomial --p 3 --h 3 --d 5 --c 12 --rmax 4':
        {'stdout': '1348eb35cf8cf9d4699d64433a0247047c19e03a6bffb391023540c13816250e'},
    'monomial --p 5 --h 2 --d 3 --c 19 --rmax 4':
        {'stdout': '91aee9df3aa8c824c71d7a2d3da9dfb328f37a1590779ea6e04ea7845cd7a8c8'},
    'monomial --p 7 --h 2 --d 5 --c 48 --rmax 3':
        {'stdout': '8c58edb5b47bb50ad7b7100ba01637e7979dace8e67543ac8cc0998852ceef19'},
    'verify-theorems --seed 4242':
        {'stdout': 'd04d77c2fbad7bf6c09ddf672c651c28ebd80c797f5910a515444a7113755a96'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "7*x^3 + 4*x", "h_or_b": 2, "kind": "f1"}':
        {'stdout': 'bcb5f61b71c7d3374ba15a06bf31ceb856f6bb91258c393b88407b6a718b5061'},
    'construct --recipe {"theorem": "pcn1", "q": 5, "n": 2, "phi": "x", "g": "4*x^23 + 13*x^15", "h_or_b": 3, "kind": "f2"}':
        {'stdout': 'b1701196cc08001b35cd9fe1a8496b901c88057dbc256307e726f0bd41e0527e'},
    'construct --recipe {"theorem": "apcnagw", "q": 2, "n": 5, "phi": "x^2 + x", "g": "3*x^10 + 18*x^8", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '03dfa19b611799a7d8065e9182df12448e303e2f14cd4b8ee9c225efb552cd1f'},
    'construct --recipe {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "35*x^47 + 54*x^19", "h_or_b": 1, "kind": "f1"}':
        {'stdout': '82e13d21b044418f46b3fdd26e9f9feffa77434f0cb40090fab44b940d47cb18'},
    'analyze --field 3^5 --function x^4 --format human':
        {'stdout': '5de3d53803a01b6331f68bd8d67eea9334fcd007ddd03ef3b7bdd46c5f25c55f'},
    'construct --recipe {"theorem": "pcn1", "q": 3, "n": 4, "phi": "x", "g": "18*x^57 + 30*x^47", "h_or_b": 2, "kind": "f1"} --format human':
        {'stdout': '009ac6c73f3dbba3aa822836f57eb9605bd6d9b377ca966a9f7030dbe1ba40b9'},
    'monomial --p 3 --h 3 --d 5 --c 26 --rmax 4 --format human':
        {'stdout': '90d0153a45d2a4f06a6261dfb56d94670076b6816184479e4823517acec11509'},
    'verify-theorems --seed 0 --format human':
        {'stdout': '52edfc5d9a3a1e7a2ae80657d12db486f047a5e0377842909512ac5035fb6f99'},
    'analyze --field 2^12 --function x^7':
        {'stdout': 'eaf8c6fbc103501e5cac3e4328cf26e1f618dc6b6b7073b33bad446c022c613b'},
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
