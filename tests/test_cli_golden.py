"""Exact stdout of cheap commands in every format, pinned by value or by sha256."""

import hashlib

import pytest

from primeshift.cli import run

# "<format> <argv>": the stdout itself when it is short, else its sha256.
GOLDEN = {
    'text orbit --n 100 --a 1': '100 14 9 6 5 [cycle]\n',
    'csv orbit --n 100 --a 1': 'step,value\n0,100\n1,14\n2,9\n3,6\n4,5\n5,6\n',
    'json orbit --n 100 --a 1': 'edc76898cd4b45ad5f67f8d64fbeb3a78c968a9255c052f11680fdbaf78e9b0e',
    'text amicable --p 11': 'p=11 n=28 a=17\n',
    'csv amicable --p 11': 'p,n,a\n11,28,17\n',
    'json amicable --p 11': '{\n  "schema_version": 1,\n  "p": 11,\n  "n": 28,\n  "a": 17\n}\n',
    'text chain --k 4': 'k=4 n=5 a=6 chain=5 11 17 23 29\n',
    'csv chain --k 4': 'k,n,a,chain\n4,5,6,5;11;17;23;29\n',
    'json chain --k 4': 'ba90220ad0e8bdedaadb3ec622d4ce04627ce2313e3da5d76d803faeaba5791d',
    'text kappa --limit 60': 'bdbb565aea6e644de397c5ab5e37d302f0360df60fd81ff039cbb5e5b73910e2',
    'csv kappa --limit 60': 'bdbb565aea6e644de397c5ab5e37d302f0360df60fd81ff039cbb5e5b73910e2',
    'json kappa --limit 60': '7b82e9bafca61ca13365d21a937a064a15fd7885ab516e5deaadca723d9e4592',
    'text kappa --limit 3000': '9a17753bad2889cf53d4c6a43f7c0b443600b23ae2f498ee747f5bf1cd0613ec',
    'csv kappa --limit 3000': '9a17753bad2889cf53d4c6a43f7c0b443600b23ae2f498ee747f5bf1cd0613ec',
    'json kappa --limit 3000': '1ae6b62551fc9e808e530f8229e2da8a4e87e4270860ea718ceb604296f5a06d',
    'text fibre --m 40': '111 319 391 434 620 722 744 812 837\n',
    'csv fibre --m 40': 'n\n111\n319\n391\n434\n620\n722\n744\n812\n837\n',
    'json fibre --m 40': 'd85144596ac72f4c58a1b1e7796590a1d87a1e43fab8b15d6e56bb25ea7341d0',
    'text census --a 39 --limit 10000': '54054088d362173a67d4bbea59e0c11338f065935757deb29601f0820bc37f34',
    'csv census --a 39 --limit 10000': '54054088d362173a67d4bbea59e0c11338f065935757deb29601f0820bc37f34',
    'json census --a 39 --limit 10000': '045e267bf71a58e563b58b922d31f2812e35ed0545753748e7e06e5861361261',
    'csv census --a 0 --limit 10000': 'd73bc0b701a47d1bc8401cad8f943c9a196dc4f940649a13be32df551db9636f',
    'json census --a 0 --limit 10000': 'b5375e3284157e4b1a1cd1c96c2a8cfe31c19ff99d5b2afb51bd7d365158c70e',
    'text census --a 39 --limit 20': 'a,cycle_id,length,members,sign_pattern,basin_count\n39,0,1,4,-,1\n39,1,5,5;44;15;8;6,+----,10\n39,2,4,7;46;25;10,+---,5\n39,3,4,13;52;17;56,+-+-,3\n',
    'csv census --a 39 --limit 20': 'a,cycle_id,length,members,sign_pattern,basin_count\n39,0,1,4,-,1\n39,1,5,5;44;15;8;6,+----,10\n39,2,4,7;46;25;10,+---,5\n39,3,4,13;52;17;56,+-+-,3\n',
    'json census --a 39 --limit 20': '4238e4aed4036176132fc1b4afe0fc3e198a783072d3d3d011aa0e7a7dbd9fab',
    'text census --a 137 --limit 100': 'a,cycle_id,length,members,sign_pattern,basin_count\n137,0,1,4,-,1\n137,1,9,5;142;73;210;17;154;20;9;6,+-+-+----,98\n',
    'csv census --a 137 --limit 100': 'a,cycle_id,length,members,sign_pattern,basin_count\n137,0,1,4,-,1\n137,1,9,5;142;73;210;17;154;20;9;6,+-+-+----,98\n',
    'json census --a 137 --limit 100': '627e8f4e6d32881fcce9a5b692895d42ced2cec268862cd1c25b99789d57cf6e',
    'text sweep --a-max 20 --limit 10000': '5ed474a5cac557fdaec34193122ebe87b09561a7112a658d54fd162a7df379b1',
    'csv sweep --a-max 20 --limit 10000': '5ed474a5cac557fdaec34193122ebe87b09561a7112a658d54fd162a7df379b1',
    'json sweep --a-max 20 --limit 10000': '43fb671e6ecafae57952a31ee2949d3274ae43a9cc27ecb6d37efb3b3a0f7ac2',
    'text table1 --limit 10000': 'ad1651f52071bc395e9fd30b0d4a6114100610f20ddc19f3cbf9dca39c58d5d9',
    'csv table1 --limit 10000': 'ad1651f52071bc395e9fd30b0d4a6114100610f20ddc19f3cbf9dca39c58d5d9',
    'json table1 --limit 10000': 'ad1651f52071bc395e9fd30b0d4a6114100610f20ddc19f3cbf9dca39c58d5d9',
    'text density --set primes --x 10000': 'set,x,count,density\nprimes,10000,2617,0.2617\n',
    'csv density --set primes --x 10000': 'set,x,count,density\nprimes,10000,2617,0.2617\n',
    'json density --set primes --x 10000': 'f4920a9782ae3c40c666d0ff3c4531a0e6787ce12d50817d32bf34517d60dc1e',
    'text density --set squares --x 10000': 'set,x,count,density\nsquares,10000,409,0.0409\n',
    'csv density --set squares --x 10000': 'set,x,count,density\nsquares,10000,409,0.0409\n',
    'json density --set squares --x 10000': 'c995475f128139e5a875fbd5a2b0421a689aa63a378091ddef06853b79f04209',
    'text stats avg --x 10000': 'c706165b7506c47e4ab41e510ecba8882bac0b9e89c51bf8620a9c9d6edcc92a',
    'csv stats avg --x 10000': 'c706165b7506c47e4ab41e510ecba8882bac0b9e89c51bf8620a9c9d6edcc92a',
    'json stats avg --x 10000': 'ee27d2ca829d07e3ce2de2b7bd50e2fec871b2272c6725cfc32dd15771d162f7',
    'text stats bmb --x 10000': '6af22739bc947249888fcf2d65d8b47052df1a46c336ab9f50acd63009838c21',
    'csv stats bmb --x 10000': '6af22739bc947249888fcf2d65d8b47052df1a46c336ab9f50acd63009838c21',
    'json stats bmb --x 10000': '5d1d79dfa4a2f12ca943204e145d731fb98a33b73e5105c01141bea7b472b4c1',
    'text stats parity --x 10000': 'c672ffeccb9960ab5d6f99f7cc80d39c99f1f125b52cf85d1b179195d2cc3194',
    'csv stats parity --x 10000': 'c672ffeccb9960ab5d6f99f7cc80d39c99f1f125b52cf85d1b179195d2cc3194',
    'json stats parity --x 10000': 'c6b986cedfedaf790ec99bfc933149580c0c999f4dd6a160d4c089eb9952526c',
    'text stats residue --x 10000': 'h,count\n0,3131\n1,3546\n2,3322\n',
    'csv stats residue --x 10000': 'h,count\n0,3131\n1,3546\n2,3322\n',
    'json stats residue --x 10000': 'ad2b292924eceec129954caa262e14018e3be7e5e6b13573defce29f24811e00',
    # n = 4 is the one composite with B(n) = n: it is neither a prime of the
    # density's target nor shifted by a.
    'text density --set primes --x 4': 'set,x,count,density\nprimes,4,2,0.5\n',
    'csv density --set primes --x 4': 'set,x,count,density\nprimes,4,2,0.5\n',
    'json density --set primes --x 4': '{\n  "schema_version": 1,\n  "set": "primes",\n  "x": 4,\n  "count": 2,\n  "density": 0.5\n}\n',
    'text density --set primes --x 5': 'set,x,count,density\nprimes,5,3,0.6\n',
    'csv density --set primes --x 5': 'set,x,count,density\nprimes,5,3,0.6\n',
    'json density --set primes --x 5': '{\n  "schema_version": 1,\n  "set": "primes",\n  "x": 5,\n  "count": 3,\n  "density": 0.6\n}\n',
    'text census --a 1 --limit 5': 'a,cycle_id,length,members,sign_pattern,basin_count\n1,0,1,4,-,3\n1,1,2,5;6,+-,1\n',
    'csv census --a 1 --limit 5': 'a,cycle_id,length,members,sign_pattern,basin_count\n1,0,1,4,-,3\n1,1,2,5;6,+-,1\n',
    'json census --a 1 --limit 5': 'adb67a1b0bcc09d221c45b537633e0ceb9565c9600df88f6a0528ce5799c16a3',
    'text stats residue --a 1 --x 5 --q 3': 'h,count\n0,2\n1,2\n2,0\n',
    'csv stats residue --a 1 --x 5 --q 3': 'h,count\n0,2\n1,2\n2,0\n',
    'json stats residue --a 1 --x 5 --q 3': '{\n  "schema_version": 1,\n  "a": 1,\n  "q": 3,\n  "x": 5,\n  "counts": {\n    "0": 2,\n    "1": 2,\n    "2": 0\n  }\n}\n',
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_cli_golden(capsys, case):
    fmt, *argv = case.split()
    code = run(["--format", fmt, *argv])
    out = capsys.readouterr().out
    assert code == (1 if argv[0] == "table1" else 0)
    want = GOLDEN[case]
    assert (out if "\n" in want else hashlib.sha256(out.encode()).hexdigest()) == want
