"""Behaviour pins: every default grid, one refusal report per note, and the
report streams of slices of the character-sum identities.

The grid digests fix the content, the parameter types and the order of each
``default_grid`` output under the defaults of all 25 identities and under
every override that the tests, the CLI tests and the benchmark workloads
pass.  Order matters: the benchmark's stratified sampler keeps grid order
among points of equal cost.  The refusal pins fix the canonical JSON of one
``hypothesis-not-met`` report for each distinct refusal note, which the
acceptance sweeps barely reach.  The report-stream pins fix the canonical
JSON of every report on a slice of each grid that a character sum computes.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from dedsums.bernoulli import Polynomial
from dedsums.dirichlet import character_from_label
from dedsums.verify import (IDENTITY_IDS, _encode_params, default_grid,
                            verify_identity)

NARROW = {"ks": (3,), "bc_max": 2, "p_values": (2, 3)}
PAIR_NARROW = {"k_pairs": ((3, 4),), "bc_max": 2, "p_values": (2, 3)}
WIDE = {"ks": (5, 7), "bc_max": 30, "coprime": False}

GRID_CASES = [(rid, {}) for rid in IDENTITY_IDS] + [
    # tests/test_acceptance.py and the charsum workload
    ("lek2", {"ks": (3, 4, 5, 7), "coprime": False}),
    # tests/test_verify.py
    ("classical-dr", {"bc_max": 6}),
    ("classical-dr", {"bc_max": 10}),
    ("apostol-dr1", {"bc_max": 4, "p_values": (1, 3)}),
    ("berndt-dkr", {"ks": (3,), "bc_max": 6}),
    ("cck-rp", {"ks": (3,), "bc_max": 3, "p_values": (1,)}),
    ("rp1", NARROW),
    ("rp2", PAIR_NARROW),
    ("rp3", PAIR_NARROW),
    ("lek2", NARROW),
    ("lek3", PAIR_NARROW),
    ("em-theorem", {"ks": (3,), "l_values": (0, 1)}),
    ("further-c1k", {"ks": (3,), "p_values": (2, 3)}),
    ("further-bc1", {"ks": (3,), "p_values": (2, 3)}),
    ("further-eq20", NARROW),
    ("further-weighted", NARROW),
    ("int-32-oracle", {"count": 2}),
    ("int-17", {"count": 3}),
    ("int-36", {"ks": (3,)}),
    # tests/test_cli.py (the CLI always passes a seed)
    ("classical-dr", {"bc_max": 8, "seed": 0}),
    ("rp3", {"k_pairs": ((3, 4),), "p_values": (3,), "bc_max": 4, "seed": 0}),
    ("int-32-oracle", {"count": 5, "seed": 7}),
    # perfbench/workloads.py
    ("rp1", WIDE),
    ("lek2", WIDE),
    ("classical-dr", {"bc_max": 60}),
    ("apostol-dr1", {"bc_max": 24}),
]

# case id -> (number of points, sha256 of the encoded grid)
GRID_DIGESTS = {
    'classical-dr':
        (555, '8a0de720580791a9c1a2132f8f83ed214369c9b4eb25b269563cc588a5bd4a1f'),
    'apostol-dr1':
        (364, '9048c9b88a33e0b3319535a6b23f1af9cba44cb6096ed01dd26313204247271b'),
    'berndt-dkr':
        (63, '2606bf6bfdd5c68ece9efa2a3f74681ba0de77f627888b50b848180c46167e88'),
    'cck-rp':
        (1161, '4f29f6f6d065ed42c7cd36dc21acaf1823e43fd2d29d8907f4f1bd7a4bedf644'),
    'rp1':
        (11520, '8a19f245198f94231f15cd8919bfc30f14937a87305ee2c4f04e632971ed546a'),
    'rp2':
        (1008, '6eba2f81bbf8bfd9cc975bf5ed2d455868c5aa8e28f31d34592d6686fb184ec9'),
    'rp3':
        (1008, '6eba2f81bbf8bfd9cc975bf5ed2d455868c5aa8e28f31d34592d6686fb184ec9'),
    'lek2':
        (7740, 'a33565b1f4ba6b42f5d9db48ba76ba0464aa4398df3d7ff524ed7f24e8966fd7'),
    'lek3':
        (644, 'e937f1d8952236ea6b61b960ce46b79448fdd0daa8f56810665ded91f8748128'),
    'raabe':
        (180, 'ec382a7889e711994290a5bac2b057e3290dbb9acf308d6f91d77118cdea53e6'),
    'em-theorem':
        (1155, '47be1b6fe809234deb7b4aa0a34a536319edbd980277abe8a8080ea458b055cb'),
    'further-c1k':
        (110, '1492bbf691d120cb0e49a7d9c4e8b627b6d150213aeffb1729f3cf4f9ecca6f9'),
    'further-bc1':
        (110, '1492bbf691d120cb0e49a7d9c4e8b627b6d150213aeffb1729f3cf4f9ecca6f9'),
    'further-eq20':
        (832, '5f08a22d1a47d25c65990d2dac3acffc85b2a60c030613741df7625b52715815'),
    'further-weighted':
        (572, '6b0a5ad81f627263218e0399806613481f15a4f979e0b02867f807e9e3be9c07'),
    'int-32-oracle':
        (202, '0d41751b5f70fa9ecd7570ac4d7ed3ee53fb5f56195ccb5afcd6fcf9bca5d417'),
    'int-24':
        (108, '5ab38df5ac0ca1f803e18b953c6b51ab1badbcdaf8bcea1ee799ea2a06fb0f76'),
    'int-28':
        (108, '31297d79254ad5116d31c19a2124bf2caea2288b1e9e1fe6f8935c30515e878f'),
    'int-17':
        (42, 'd2f07ad6dfb0eecc6de9dd52e0a4bc9737c3de9dac5f8b950329f46aefe1b469'),
    'int-23':
        (8, 'f3370963ade2844f6473ee3054c122d9063441e846ba42f55dd248e75337f3a0'),
    'int-36':
        (300, 'f5648fd29ffcac5b49e7826fc4e3974af6064b5c609f112fa77b14dc252feb84'),
    'remark-apostol':
        (378, '03937d4818707dd706db3caa5987740e7025ab955c5b9fe8d7ea340acbe9598c'),
    'laplace-16':
        (108, '3c2e916254bc0246f92fe3662948822113ebd8905e3c981af41f4b97991c7df0'),
    'laplace-product':
        (10, '213def1213d231b1185ef9975a9c2d1b0ce21b6e11cfaa0b5c2eaa7a1da54740'),
    'laplace-char':
        (10, '6ddfdd1a9ff1cddbaef3416f02e84abd27810aa1db7df50169b9ca0a9f856990'),
    'lek2,coprime=False,ks=(3, 4, 5, 7)':
        (11520, '8a19f245198f94231f15cd8919bfc30f14937a87305ee2c4f04e632971ed546a'),
    'classical-dr,bc_max=6':
        (23, '9d312e9720590ccfcd74935777482f24d111ab4c6655204b05073366c39a9bc7'),
    'classical-dr,bc_max=10':
        (63, '52d0a29fb5575781201145da9213111951c2ec754ce4eb8af844af04fa3f83e6'),
    'apostol-dr1,bc_max=4,p_values=(1, 3)':
        (22, '9241460a6488d713b24884a0d53d92b3e7651e25433d025b23eef4705164cc10'),
    'berndt-dkr,bc_max=6,ks=(3,)':
        (6, 'fc89de17f4ebf3822113001cc2ad5359b43bbff95d36886dffd30438ec3d1545'),
    'cck-rp,bc_max=3,ks=(3,),p_values=(1,)':
        (7, '2067ef3c116fde831480345ee0302ce4fac02e99209c58730d67dbe38fcd1a64'),
    'rp1,bc_max=2,ks=(3,),p_values=(2, 3)':
        (8, 'feb88e18c2c72334e9cad0f52f3fff8bb1765ef03d3df74329acef09094f81c0'),
    'rp2,bc_max=2,k_pairs=((3, 4),),p_values=(2, 3)':
        (8, '848f57c1469c923257c326d51ce8d072cf1c7a0c72f3214da018e6e9b2c4b35a'),
    'rp3,bc_max=2,k_pairs=((3, 4),),p_values=(2, 3)':
        (8, '848f57c1469c923257c326d51ce8d072cf1c7a0c72f3214da018e6e9b2c4b35a'),
    'lek2,bc_max=2,ks=(3,),p_values=(2, 3)':
        (6, 'c58df13041d842fceba4544aa079a46dfe78ce9de53d76d86079e2389216d82f'),
    'lek3,bc_max=2,k_pairs=((3, 4),),p_values=(2, 3)':
        (6, '49e81aed6ef4a64451c2b58cd474c10ee8fade02c91a77a6f9c6b0d69254d28c'),
    'em-theorem,ks=(3,),l_values=(0, 1)':
        (42, '17a834f278dbce46773a742d43c82d8d36a65f0a162703a827b51c47efd0b540'),
    'further-c1k,ks=(3,),p_values=(2, 3)':
        (3, '485a46e54bb47c6e663479c94cadc4d4068fbb4a495e9ac38b66c7afc222da3b'),
    'further-bc1,ks=(3,),p_values=(2, 3)':
        (3, '485a46e54bb47c6e663479c94cadc4d4068fbb4a495e9ac38b66c7afc222da3b'),
    'further-eq20,bc_max=2,ks=(3,),p_values=(2, 3)':
        (4, '6be41fd766653e2eb04d8bb7f37effdfd4d1ba3fffb0a7ef2f7f664e9a46b537'),
    'further-weighted,bc_max=2,ks=(3,),p_values=(2, 3)':
        (3, 'af55d948dd4227ac3b7218b23c38546220a63937b5eb8532c1fd8205e016ade4'),
    'int-32-oracle,count=2':
        (4, '0df3b432f1afbd840bb046937fd25f84b6fcbc38422c18fcc1be29bcd62dea74'),
    'int-17,count=3':
        (5, 'dfa9bdb236b2711f88734a235d4826b16146761e1c0fcfc59b7850e7162f5605'),
    'int-36,ks=(3,)':
        (75, '2256cb2e281377b394f56148e73eed1522c2701c7072f79571908428ffcf4677'),
    'classical-dr,bc_max=8,seed=0':
        (43, 'd91eb1a804a388be69a8edc52352f612a441f9955ad3044dc8d2b9deb9fee9ac'),
    'rp3,bc_max=4,k_pairs=((3, 4),),p_values=(3,),seed=0':
        (16, 'f334edf4a3315ab3ed77cd17c83aad94c564ff61f14c550decd94b710272a501'),
    'int-32-oracle,count=5,seed=7':
        (7, 'ec9e448d1a64188b62aa8811afb2050ba485a5bdb19e41408e4cb10b9e57dcd5'),
    'rp1,bc_max=30,coprime=False,ks=(5, 7)':
        (153000, '1e2fe6bc78f45f0f6ba2d79ee37831cad160b70222a71e85761cb76e25cbea47'),
    'lek2,bc_max=30,coprime=False,ks=(5, 7)':
        (153000, '1e2fe6bc78f45f0f6ba2d79ee37831cad160b70222a71e85761cb76e25cbea47'),
    'classical-dr,bc_max=60':
        (2203, '7e2266e2fd5872ade5286ffd743f9a5f487bcf74c55684e59e57412ab71c03b6'),
    'apostol-dr1,bc_max=24':
        (1436, '5208e8b963753d077be13bd637cb10f869c0051ed50bebd34cfcaa50531d1460'),
}


def _grid_digest(grid) -> str:
    rows = [[_encode_params(pt), {k: type(v).__name__ for k, v in pt.items()}]
            for pt in grid]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _case_id(case) -> str:
    rid, options = case
    return rid + "".join(f",{k}={v}" for k, v in sorted(options.items()))


@pytest.mark.parametrize("case", GRID_CASES, ids=[_case_id(c) for c in GRID_CASES])
def test_default_grid_pinned(case):
    rid, options = case
    grid = default_grid(rid, **options)
    assert (len(grid), _grid_digest(grid)) == GRID_DIGESTS[_case_id(case)]


def _chi(text):
    k, _, label = text.partition(":")
    return character_from_label(int(k), label)


PAIR = {"char1": _chi("5:1"), "char2": _chi("5:2")}

# (identity id, params, canonical JSON of its hypothesis-not-met report)
REFUSALS = [
    ("classical-dr", {"b": 2, "c": 4},
     '{"id": "classical-dr", "lhs": null, "notes": "gcd(b, c) = 2 != 1", "params": {"b": 2, "c": 4}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("apostol-dr1", {"p": 2, "b": 1, "c": 2},
     '{"id": "apostol-dr1", "lhs": null, "notes": "requires odd p and gcd(b, c) = 1", "params": {"b": 1, "c": 2, "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("berndt-dkr", {"char": _chi("3:1"), "b": 1, "c": 2},
     '{"id": "berndt-dkr", "lhs": null, "notes": "requires gcd(b, c) = 1 and k | b or k | c", "params": {"b": 1, "c": 2, "char": "3:1"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("berndt-dkr", {"char": _chi("3:1"), "b": 2, "c": 6},
     '{"id": "berndt-dkr", "lhs": null, "notes": "requires gcd(b, c) = 1 and k | b or k | c", "params": {"b": 2, "c": 6, "char": "3:1"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("berndt-dkr", {"char": _chi("1:0"), "b": 1, "c": 3},
     '{"id": "berndt-dkr", "lhs": null, "notes": "requires a non-principal primitive character", "params": {"b": 1, "c": 3, "char": "1:0"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("cck-rp", {"char": _chi("4:1"), "p": 3, "b": 3, "c": 5},
     '{"id": "cck-rp", "lhs": null, "notes": "requires odd p, gcd(b,c)=1, non-principal primitive chi, and k prime when gcd(k, bc) = 1", "params": {"b": 3, "c": 5, "char": "4:1", "p": 3}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("rp1", {"char1": _chi("3:1"), "char2": _chi("5:1"), "p": 2, "b": 1, "c": 1},
     '{"id": "rp1", "lhs": null, "notes": "requires p > 1 and non-principal primitive characters of one modulus", "params": {"b": 1, "c": 1, "char1": "3:1", "char2": "5:1", "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("rp2", {"char1": _chi("3:1"), "char2": _chi("4:1"), "p": 1, "b": 1, "c": 1},
     '{"id": "rp2", "lhs": null, "notes": "requires p > 1 and non-principal primitive characters", "params": {"b": 1, "c": 1, "char1": "3:1", "char2": "4:1", "p": 1}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("rp3", {"char1": _chi("3:1"), "char2": _chi("3:1"), "p": 3, "b": 1, "c": 2},
     '{"id": "rp3", "lhs": null, "notes": "requires p > 1, distinct moduli, non-principal primitive characters", "params": {"b": 1, "c": 2, "char1": "3:1", "char2": "3:1", "p": 3}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("lek2", {"char1": _chi("3:1"), "char2": _chi("4:1"), "p": 2, "b": 1, "c": 1},
     '{"id": "lek2", "lhs": null, "notes": "requires non-principal primitive characters of one modulus", "params": {"b": 1, "c": 1, "char1": "3:1", "char2": "4:1", "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("lek3", {"char1": _chi("3:0"), "char2": _chi("4:1"), "p": 2, "b": 1, "c": 1},
     '{"id": "lek3", "lhs": null, "notes": "requires non-principal primitive characters", "params": {"b": 1, "c": 1, "char1": "3:0", "char2": "4:1", "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("lek3", {"char1": _chi("3:1"), "char2": _chi("4:1"), "p": 2, "b": 2, "c": 4},
     '{"id": "lek3", "lhs": null, "notes": "closed form requires gcd(b, c) = 1", "params": {"b": 2, "c": 4, "char1": "3:1", "char2": "4:1", "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("em-theorem", {"char": _chi("5:0"), "f": Polynomial([1]), "alpha": F(0),
                    "beta": F(5), "l": 0},
     '{"id": "em-theorem", "lhs": null, "notes": "requires a non-principal character", "params": {"alpha": "0", "beta": "5", "char": "5:0", "f": ["1"], "l": 0}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("em-theorem", {"char": _chi("3:1"), "f": Polynomial([1]), "alpha": F(3),
                    "beta": F(3), "l": 0},
     '{"id": "em-theorem", "lhs": null, "notes": "requires alpha < beta", "params": {"alpha": "3", "beta": "3", "char": "3:1", "f": ["1"], "l": 0}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("further-c1k", {**PAIR, "p": 2, "l": 3},
     '{"id": "further-c1k", "lhs": null, "notes": "requires one modulus and 0 <= l <= p-2", "params": {"char1": "5:1", "char2": "5:2", "l": 3, "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("further-bc1", {**PAIR, "p": 2, "l": 1},
     '{"id": "further-bc1", "lhs": null, "notes": "requires one modulus and 0 <= l <= p-2", "params": {"char1": "5:1", "char2": "5:2", "l": 1, "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("further-eq20", {**PAIR, "p": 3, "l": 2, "b": 1, "c": 1},
     '{"id": "further-eq20", "lhs": null, "notes": "requires one modulus and 0 <= l <= p-2", "params": {"b": 1, "c": 1, "char1": "5:1", "char2": "5:2", "l": 2, "p": 3}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("further-eq20", {"char1": _chi("3:1"), "char2": _chi("3:1"), "p": 3, "l": 0,
                      "b": 1, "c": 1},
     '{"id": "further-eq20", "lhs": null, "notes": "vanishing holds under parity-product sign -1", "params": {"b": 1, "c": 1, "char1": "3:1", "char2": "3:1", "l": 0, "p": 3}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("further-weighted", {"char1": _chi("3:1"), "char2": _chi("4:1"), "p": 2, "l": 0,
                          "b": 1, "c": 1},
     '{"id": "further-weighted", "lhs": null, "notes": "requires one modulus and 0 <= l <= p-2", "params": {"b": 1, "c": 1, "char1": "3:1", "char2": "4:1", "l": 0, "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("further-weighted", {"char1": _chi("3:1"), "char2": _chi("3:1"), "p": 2, "l": 0,
                          "b": 2, "c": 4},
     '{"id": "further-weighted", "lhs": null, "notes": "requires parity-product sign -1 and gcd(b,c)=1", "params": {"b": 2, "c": 4, "char1": "3:1", "char2": "3:1", "l": 0, "p": 2}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("remark-apostol", {"m": 1, "n": 1, "b1": 2, "b2": 3, "x": F(1, 3)},
     '{"id": "remark-apostol", "lhs": null, "notes": "requires odd p = m + n", "params": {"b1": 2, "b2": 3, "m": 1, "n": 1, "x": "1/3"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("laplace-char", {"char": _chi("4:0"), "n": 1, "t": F(1), "s": 1.0},
     '{"id": "laplace-char", "lhs": null, "notes": "requires a non-principal primitive character", "params": {"char": "4:0", "n": 1, "s": 1.0, "t": "1"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    # the Laplace closed forms hold for n >= 1 (and m >= 0 for the product)
    ("laplace-16", {"n": 0, "t": F(1), "y": F(0), "s": 1.0},
     '{"id": "laplace-16", "lhs": null, "notes": "requires n >= 1", "params": {"n": 0, "s": 1.0, "t": "1", "y": "0"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("laplace-product", {"m": 1, "n": 0, "s": 1.0},
     '{"id": "laplace-product", "lhs": null, "notes": "requires n >= 1", "params": {"m": 1, "n": 0, "s": 1.0}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("laplace-product", {"m": -1, "n": 2, "s": 1.0},
     '{"id": "laplace-product", "lhs": null, "notes": "requires m >= 0", "params": {"m": -1, "n": 2, "s": 1.0}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("laplace-char", {"char": _chi("3:1"), "n": 0, "t": F(1), "s": 1.0},
     '{"id": "laplace-char", "lhs": null, "notes": "requires n >= 1", "params": {"char": "3:1", "n": 0, "s": 1.0, "t": "1"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    # an imprimitive character is refused before either side
    ("berndt-dkr", {"char": _chi("3:0"), "b": 1, "c": 3},
     '{"id": "berndt-dkr", "lhs": null, "notes": "requires a non-principal primitive character", "params": {"b": 1, "c": 3, "char": "3:0"}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
    ("cck-rp", {"char": _chi("4:0"), "p": 1, "b": 1, "c": 3},
     '{"id": "cck-rp", "lhs": null, "notes": "requires odd p, gcd(b,c)=1, non-principal primitive chi, and k prime when gcd(k, bc) = 1", "params": {"b": 1, "c": 3, "char": "4:0", "p": 1}, "residual": null, "rhs": null, "verdict": "hypothesis-not-met"}'),
]


@pytest.mark.parametrize("rid,params,expected", REFUSALS,
                         ids=[f"{rid}-{i}" for i, (rid, _, _) in enumerate(REFUSALS)])
def test_refusal_report_pinned(rid, params, expected):
    report = verify_identity(rid, params)
    assert report.verdict == "hypothesis-not-met"
    assert report.to_json() == expected


# Identities whose reports come from a character sum over residues: the
# twisted Bernoulli polynomials (cck-rp, int-36), the character double sum
# (rp1, rp2, rp3), the character product integral (further-*) and the
# summation formula (em-theorem); those whose closed side is a binomial
# convolution of Bernoulli values (apostol-dr1, remark-apostol, int-24,
# int-28); and the remaining shapes of the direct twisted sum: the weighted
# power sums (lek2, lek3) and the sawtooth sum at p = 1 (berndt-dkr).  The
# two grids of the charsum-wide workload are pinned too, at its overrides.
# The three Laplace identities are pinned for their float lhs, rhs and
# residual, which must stay bit-identical.  Each pin is a sha256 of the
# to_json stream of an evenly spaced slice of at most 40 points of the grid.
REPORT_SLICE = 40

REPORT_CASES = [(rid, {}) for rid in (
    "apostol-dr1", "berndt-dkr", "cck-rp", "em-theorem", "further-bc1", "further-c1k",
    "further-eq20", "further-weighted", "int-24", "int-28", "int-36", "lek2", "lek3",
    "remark-apostol", "rp1", "rp2", "rp3", "laplace-16", "laplace-product",
    "laplace-char")] + [("rp1", WIDE), ("lek2", WIDE)]

REPORT_DIGESTS = {
    'em-theorem':
        (40, '4b46dfba1139621385075e1d33e89cfb47dd08637ad26b603e8bf21062bfb10c'),
    'further-c1k':
        (40, 'e5848e985b0c64abc23352017b3d6fa5d473b9bb60ca94779f52300cddc2c33b'),
    'further-bc1':
        (40, '0c4b4e83498026213e1b029501e46ae295986f007c10ea2583ad2f851022883d'),
    'further-eq20':
        (40, '9de029fc63120de7dd9996aeaf6d075a874785e631ecb4a1a6628419f097ae62'),
    'further-weighted':
        (40, '1beb033b2b023aa54ddf45a62a89eb12ef539529aa733801430daee25ab0d4aa'),
    'rp1':
        (40, '00256b1a8acd82288e5eedcf28a672937865939fe3631ce55798e7e5586cbc7f'),
    'cck-rp':
        (40, 'fbddca818572c67f98f2369d0b42a01fdfe32e08a39f39224c78b2d64793bcd0'),
    'int-36':
        (40, '5d71dd11d5dc912f5fb31a6eaff9de0e61c57f5943070194d6a88701ee461b2e'),
    'apostol-dr1':
        (40, '121cdb61d334c2e436335648d830dc2f23f90e8900815b2e19213a6c351def9a'),
    'remark-apostol':
        (40, 'af946498b6d35b1f468c243df02e960e4270348cc84d4b0f10369586f34bc0d8'),
    'int-24':
        (40, '6e19ee0bfa1a217d049db180ba467565213cf3d51bef994a996e60f01bd990ff'),
    'int-28':
        (40, '6c61ea6eae8d598f126d3a786f3fb2c078c24cbe51507bad2bd4f1fd4c9b394e'),
    'rp2':
        (40, '57f5027bac50162cc0d10d0c1eb57e5796f5614b2b518959269241c4ec9f6e7a'),
    'rp3':
        (40, '32cbd72bac85ea9f56c2981fcdc5e0355582e26c8e3126eea72a3735b6276141'),
    'berndt-dkr':
        (40, 'a3032f4dd17702150416e81a42f1123445eb5a2a271d95bc346ccb44a556d706'),
    'lek2':
        (40, '2ebdf532f36914fbd69aaa9f673b2ee3d442583d11cb6994840d7306ba251698'),
    'lek3':
        (40, 'f43e65cbe4a65eb1116b0868851cb404a46916d32844609024708e06374544e3'),
    'laplace-16':
        (40, '75d82b4494083084a0c7e7823334a8ce9df47b6ca1e81ed60fa019473d223bb7'),
    'laplace-product':
        (10, '50db8e511ab340fb5b148c1efa220f7a3f74852c3e3da062695a4bcf14f8b172'),
    'laplace-char':
        (10, 'eef8d06a3fb0dc9404c45c77010f7afb733d5eff6ce7265a47ad77425bdc2bf7'),
    'rp1,bc_max=30,coprime=False,ks=(5, 7)':
        (40, '954dfb52fbf37b2c77377f0e4c41eb0249c5006cda2fe9f172d09cfaada73661'),
    'lek2,bc_max=30,coprime=False,ks=(5, 7)':
        (40, '1583faabd3459de91603e013f2f5c9e6a4f9f7fc580c455d5cd861e514ac46b1'),
}


def _report_slice(rid, **options):
    grid = default_grid(rid, **options)
    return grid[::max(1, len(grid) // REPORT_SLICE)][:REPORT_SLICE]


def _report_digest(points, rid) -> str:
    stream = "\n".join(verify_identity(rid, pt).to_json() for pt in points)
    return hashlib.sha256(stream.encode()).hexdigest()


@pytest.mark.parametrize("case", REPORT_CASES, ids=[_case_id(c) for c in REPORT_CASES])
def test_report_stream_pinned(case):
    rid, options = case
    points = _report_slice(rid, **options)
    assert (len(points), _report_digest(points, rid)) == REPORT_DIGESTS[_case_id(case)]


# rp3 fails exactly where k2 | b and k1 | c (criterion 6): every such default
# point, so the notes of the cross-modulus correction term are pinned too.
RP3_DIVISIBLE_DIGEST = (44, 20,
                        '2fd60c2b0f75658285071736c724d42dbf2dc39acd715906e7adea33bb205eb4')


def test_rp3_divisible_points_pinned():
    points = [pt for pt in default_grid("rp3")
              if pt["b"] % pt["char2"].modulus == 0 and pt["c"] % pt["char1"].modulus == 0]
    mismatches = sum(verify_identity("rp3", pt).verdict == "mismatch" for pt in points)
    assert (len(points), mismatches, _report_digest(points, "rp3")) == RP3_DIVISIBLE_DIGEST
