"""Byte-identity guard: the exact stdout of a fixed set of CLI requests.

Each entry pins the exit code and the sha256 of `cli.main` stdout, basis
vectors included.  A refactor of the linear algebra or the chain code must
leave every digest unchanged; a change meant to alter output re-records
them and says why.
"""

import hashlib

import pytest

from hodgemoments.cli import main

GOLDEN = [
    ("basis --family kl --n 2 --k 5 --mid --vectors", 0,
     "db0127f227700afc180525b83b97600a1d17e1679d8d852dc18b198bf9c20e2d"),
    ("basis --family kl --n 2 --k 6 --mid --vectors", 0,
     "7ebebb8015faa03b1bf116e19b2ca51f0ad146adafbe529c1c9c8cfd1ae4506c"),
    ("basis --family kl --n 2 --k 9 --mid --vectors", 0,
     "39f0f75b28f978459676e9b502f4713a897de61005b987a110af98e21c0dc88e"),
    ("basis --family kl --n 3 --k 5 --mid --vectors", 0,
     "10c28443c4bab370dec2d17a2c26b7e8492ba268d0c2b574c59fde77f3d71afe"),
    ("basis --family kl --n 4 --k 7 --mid --vectors", 0,
     "e2d81733b6856aaed99057f5d1740f950e602a5c0dff78110f3c27eaf9dfa2ea"),
    ("basis --family kl-tilde --n 2 --k 5 --mid --vectors", 0,
     "88a08ca08bec3c1f4f212bc56b595e7212cfaf0f9783c7e22d317fb509573c3a"),
    ("basis --family kl-tilde --n 2 --k 6 --mid --vectors", 0,
     "549cdafae017b6fd6802e005047b5db7852b9059e70f5aefed6fca4adc34aa82"),
    ("basis --family v21 --mid --vectors", 0,
     "9fb50ac4f1cda4c83a0256ec2640e78b6a257a295741814c41ed21fa3c9c9a9c"),
    ("basis --family kl-tilde --n 3 --k 3 --vectors", 0,
     "251031d65fc509a0e2365e6a17a67a615c7a6737d3a47f29ed618c407f30de18"),
    # the kl-tilde tower's extra pivots in the full basis
    ("basis --family kl-tilde --n 2 --k 6 --vectors", 0,
     "b439821a7f82710472013751ea0806bb83b7f7fc464ec1f90126bacd40584689"),
    ("basis --family kl-tilde --n 2 --k 9 --vectors", 0,
     "5b3f7e73f08a372b88b03ff41feb9b65a219348d02a1e630b2b730a0a581503d"),
    ("basis --family airy --n 3 --k 5 --vectors", 0,
     "8117219fda8406d770a047eda476f9fc0536507d57aff582fdd940587e07217e"),
    ("basis --family v21 --vectors", 0,
     "5c7df915c61d7fbdc1b0c79a0b7f9aff572f7bb824a609867f4388a24ef0347a"),
    ("hodge --family kl --n 3 --k 7", 0,
     "bed26f1f9681e3c58f759fc405e106de17fc6f54377e22d0321a16866055d01e"),
    ("hodge --family v21", 0,
     "fdc1459a11c81b8f0f2b42786b7127cc0c211b49d3fb091c2939a0b119eedcf6"),
    ("verify --n 2 --k 6", 0,
     "b79db39c060dd40ce0dc4a8918385e439e204ea43964f311164afd84c8daa8b9"),
    ("verify --n 3 --k 5", 0,
     "b180d7d95c661d120fbc2b83d18a5164b83c2bffbb93aacd9a7a08b39361b0f8"),
    ("verify --n 3 --k 6", 0,
     "4902a667b617f1f8340ade8ba9e72f37a7671cafc170fb8b0344567f04c1a1e4"),
    ("verify --n 2 --k 9", 0,
     "bdcc5883b646e028b68c826247effc8aae3a232d760acce96899b35c45af75ff"),
    # n >= 4: no tilde checks, airy inside the gate
    ("verify --n 4 --k 3", 0,
     "c810e2611c41ec7018e2fb2033b2412481c674b54cf4aeecbd8f767422b757cd"),
    # kl outside the gate: tilde-kernel-tail and route-airy
    ("verify --n 3 --k 4", 0,
     "fdb10d6ae112720033b86e0787b600594df890b1806261a7a8cb03465828f385"),
]


@pytest.mark.parametrize("request_line, code, digest", GOLDEN,
                         ids=[line for line, _, _ in GOLDEN])
def test_stdout_bytes_unchanged(capsys, request_line, code, digest):
    assert main(request_line.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
