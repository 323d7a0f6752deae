"""Byte identity of the CLI on a fixed corpus of commands.

Each entry is a command line, its exit code and the sha256 of its stdout,
captured from the command set as it stood before the sparse-combination
core replaced the four hand-written series classes.  A change that alters
one byte of output for any of these commands fails here.
"""

import hashlib

import pytest

from nabch.cli import main

GOLDEN = [
    ("expand --basis monomial --degree 1 --format text", 0, "bd100eeb83ce216aa51e8be4d49f1f8adb3e31b1d33ef43afbd613b00d1add6e"),
    ("expand --basis monomial --degree 1 --format json", 0, "1f16341086b541a194255fdfca6a269ccbc8bbfc3aee5ed65ea836e61798fd61"),
    ("expand --basis monomial --degree 1 --format latex", 0, "bd100eeb83ce216aa51e8be4d49f1f8adb3e31b1d33ef43afbd613b00d1add6e"),
    ("expand --basis monomial --degree 2 --format text", 0, "c58bd0c26144a6eaff0b0abcb4e678327ed005f5026615bddf7cf18937ce78a4"),
    ("expand --basis monomial --degree 2 --format json", 0, "baaa692724c06d4bd099101a55db3d2ccaa6e47b63c8d89e6224b74befd1320f"),
    ("expand --basis monomial --degree 2 --format latex", 0, "fa6b5a5975f45fdd8ac388c94988f7da7ed9d1848fd96d3f1e65f88e05f36a21"),
    ("expand --basis monomial --degree 3 --format text", 0, "3028bdd4035813350f2cd637e7f9f84ef8541c2485e7dd77337ea74e5439c36a"),
    ("expand --basis monomial --degree 3 --format json", 0, "fe4402ad28bc94825a1ed01f5d50a770e019ec7088aa705f3f66f5a209c39cc2"),
    ("expand --basis monomial --degree 3 --format latex", 0, "f8d52cdc251e0e3f935eca1edf9f0ea04af71785e898e08b91aa5b03c7b754fc"),
    ("expand --basis monomial --degree 4 --format text", 0, "1b1ae97ab547df387bbb8954b2dd42ceb93733fce033fef9de9d6cb7db0ca990"),
    ("expand --basis monomial --degree 4 --format json", 0, "8ecd7562b8d9170a51957407b8a2d4f2e41e5d4850bfa16ad7974d8096d268d2"),
    ("expand --basis monomial --degree 4 --format latex", 0, "9e139b30b593f2e95956b08e2dea84f485e8e0ac160c50d9c738dab9e6b86ac6"),
    ("expand --basis monomial --degree 5 --format text", 0, "d3e9fda67ed4857d80993bc36b5ea73f35ecf8d18a7261ed1a81489197a53b6b"),
    ("expand --basis monomial --degree 5 --format json", 0, "2be57804967b60fb3e385f4e2f6310a7ef8d6f85d5d5a1cfaa7135ee8a6da639"),
    ("expand --basis monomial --degree 5 --format latex", 0, "c9216d645357700c67bf3a5710fe3085d246c1ff99c53aea4ec2ccee8e5f4636"),
    # the degree-8 pins were captured while route 1 still built expand's series
    ("expand --basis monomial --degree 8 --format text", 0, "606010d4ba2ef55d7ba3e848faaae47061fe1b1adbf392c1caf81ea553332ced"),
    ("expand --basis monomial --degree 8 --format json", 0, "5d114c5ecfbb310da8bf2887283a61441582242b3e90544798bb6c78fed235db"),
    ("expand --basis monomial --degree 8 --format latex", 0, "9cc47d89000ea897afcf047cc13f6d2a2a64719e36d4019cd7889b9686e8965d"),
    ("expand --basis primitive --degree 1 --format text", 0, "2dc97d7b3ec559134d857476d5e8a6651ab77114607dd3518a5d2f58ae22cb24"),
    ("expand --basis primitive --degree 1 --format json", 0, "2f258325a85763d4f31cf685852146aeaa5272fdac07973970e28ba644324c92"),
    ("expand --basis primitive --degree 1 --format latex", 0, "2dc97d7b3ec559134d857476d5e8a6651ab77114607dd3518a5d2f58ae22cb24"),
    ("expand --basis primitive --degree 2 --format text", 0, "c437ae15e96cb60e1744cc34c457a4dee97690bb4cf688b8bf6bafcbdf0be1a8"),
    ("expand --basis primitive --degree 2 --format json", 0, "9903b9d8618293eccdbbbcd1f924aa1f9501052615fd07ed3d6c25f9982d15b2"),
    ("expand --basis primitive --degree 2 --format latex", 0, "340514825868035f85c302bcb6c921578341a6c29da88a4258aead79dd06f953"),
    ("expand --basis primitive --degree 3 --format text", 0, "da6c570d1fb52c5f91c088c7af1f3e21e5c0f0943974c8f16e42622bbc4b9640"),
    ("expand --basis primitive --degree 3 --format json", 0, "220d8ee0b45e7bb164f4cf7280c0c2fb14d0365d40a86c5ac88bf3c12c5e913b"),
    ("expand --basis primitive --degree 3 --format latex", 0, "74337553e26b6d4aa97bb6783063b196ab7a6a365b01503c3e4eb84644ce3d5f"),
    ("expand --basis primitive --degree 4 --format text", 0, "d76fdc2398fec858bb32e13a0e87f3a2bf524994096fd4e1f4aa4f1036e730f9"),
    ("expand --basis primitive --degree 4 --format json", 0, "b90bd1bbf22a79f2f6f494a2815801d0e8e82789498b9f814db7b6088c36d568"),
    ("expand --basis primitive --degree 4 --format latex", 0, "fc29f3190562e93617c64f0d632c5e9a5cd82a9e5b416d3af24e5338d6eb89a2"),
    ("expand --basis primitive --degree 5 --format text", 0, "d5dc1d33c023799b5aa2589fdc7a0c27e1dd2f893190bec0c9f63f388bc2aa4c"),
    ("expand --basis primitive --degree 5 --format json", 0, "d62612bbaef74f2e760a5a288da898927c55bbd850cdfe9b99202ce439753011"),
    ("expand --basis primitive --degree 5 --format latex", 0, "0bd207b44566553a6fbe37fefadde6a7b462529460be88cd940d82558412baf3"),
    ("expand --basis both --degree 1 --format text", 0, "f500d7d1c3810efb8134d3217d924aadd9ba91a082a30a93b0b5b94aabcbcbd0"),
    ("expand --basis both --degree 1 --format json", 0, "1de5668d26971da9b18831c4722a3d4c15c8a09fa970f49e0f916f6324705d35"),
    ("expand --basis both --degree 1 --format latex", 0, "f500d7d1c3810efb8134d3217d924aadd9ba91a082a30a93b0b5b94aabcbcbd0"),
    ("expand --basis both --degree 2 --format text", 0, "159e18cd14e947434426af4ac0ef0b41e35f8ddf204dc7237f67848f7d44bb43"),
    ("expand --basis both --degree 2 --format json", 0, "93a1898ef67cb86ae62f63371d431c15f3658215a640188920e933858cfd9425"),
    ("expand --basis both --degree 2 --format latex", 0, "d0efdbb311e80579088b5a241d834f15c9e7d06e89f5099460a117588d5814a0"),
    ("expand --basis both --degree 3 --format text", 0, "df51aa220d2418666caf49d6cf69464300c21a5236932a5b4aa43a41a3a31991"),
    ("expand --basis both --degree 3 --format json", 0, "a4b76c6bfa0ffffa453853455ddc0db5b41e46d60265abbeca7436113d01d72a"),
    ("expand --basis both --degree 3 --format latex", 0, "30ac883e6c20f574a4cfe33a3be2e614ad7e1a5cf824f1ee32232877b9e56323"),
    ("expand --basis both --degree 4 --format text", 0, "9beaeaf4828edb6071a106f1b9a17c598b3f2d9473727c9e810a35dcd79983e2"),
    ("expand --basis both --degree 4 --format json", 0, "e7278bcc017e3737f38c67494b1c255891023459bdc41eeff2389d0e46381979"),
    ("expand --basis both --degree 4 --format latex", 0, "7e1728b92a6b28485509c022c6ce560b3aaaf1ebaa441a44e54465acb53c2409"),
    ("expand --basis both --degree 5 --format text", 0, "5bd3f802babd77d1b3ffd9bdec1941ca5ba16284aee5756ab1a09dc2708d595f"),
    ("expand --basis both --degree 5 --format json", 0, "1d51746e900a79db312cd6a1a7d18706e007e71e56c5e915360fbd595d3c10c4"),
    ("expand --basis both --degree 5 --format latex", 0, "bcf22fcd43547fde3f3187c9d88f4e2e2769666e0194ef1201be593ad375dddb"),
    # captured while route 2 was still evaluated through intermediate Series
    ("expand --basis both --degree 6 --format text", 0, "a618b5dd7ec8333794415ca7ab0d1cb401bc5e0e5dd8d6ba897cb243cf43fbf8"),
    ("expand --basis both --degree 6 --format json", 0, "84e5f4733bcd9feab5fb0e2ede39a7d3a92b0756af1b2e5c0b2cb576671b6ffa"),
    ("expand --basis both --degree 6 --format latex", 0, "c9d216e3a3477b5c3b8481ad01ffebe17280f180a209a1b6b4990ffdca6c9199"),
    ("expand --basis both --degree 7 --max-degree 7 --format json", 0, "4ae79e86468f0686f65cd1449657dbba1f05b5e8e9d65e00d142a0be664040d1"),
    ("tau --n 0 --format text", 0, "3bb2abb69ebb27fbfe63c7639624c6ec5e331b841a5bc8c3ebc10b9285e90877"),
    ("tau --n 0 --format json", 0, "a53155c780fe24750ca6cd90caf8ddd8de93d1848cf95ef8d6507bcfd7cff56b"),
    ("tau --n 0 --format latex", 0, "3bb2abb69ebb27fbfe63c7639624c6ec5e331b841a5bc8c3ebc10b9285e90877"),
    ("tau --n 1 --format text", 0, "bbf1e81ea74bf06c5091ff81567c632f7c21c12bac7bd8e54a3498da5862fce0"),
    ("tau --n 1 --format json", 0, "934a415bee87f770e751828e501547086988d23e268daeab2853c436db4aeafc"),
    ("tau --n 1 --format latex", 0, "d24f168a7e4dbd92b950b80baf963a657538c1127a43f700cc843ca6ed93bcbd"),
    ("tau --n 2 --format text", 0, "f42a27429624d6596677b052923fdaa21de3b92a79882882aedf981cf0c42815"),
    ("tau --n 2 --format json", 0, "4d1001523fa3f85d57dd940340e1604d13ec3a74285aa34ee947e4f7c51e331a"),
    ("tau --n 2 --format latex", 0, "202eeec6d7fdece813ed10df9807897707af95988c607f5f64f7afc91b852f49"),
    ("tau --n 3 --format text", 0, "66a66c04b8c5154920c30ec67f2e9739ce9d85740a23b9eccd4c1f3a4affbf91"),
    ("tau --n 3 --format json", 0, "e11d63d76518eda13ff59cd331480caee72de1118581a54357a8a663d074268b"),
    ("tau --n 3 --format latex", 0, "1fd797b0b3b0d8be3adc5a85157d665be94270f6f4c2657ffebbdc642b006a24"),
    ("tau --n 4 --format text", 0, "1fa9cbca46ef7c80ab4206a07e53ec1d8e512a0a7f04211df8c130dd1cc3efda"),
    ("tau --n 4 --format json", 0, "fb344dc4ccaabd92988dda801a17570f44bf0a1f20ef5b116cc0aadb463722d6"),
    ("tau --n 4 --format latex", 0, "27d17e00e2c2109ad2591a5e13045829dfd50da0a148bd64745330c54ed87591"),
    ("tau --n 5 --format text", 0, "1d9e6dc37df6e58547174ca06ff114dbd1a79460763d3881fa50e18ba85cd212"),
    ("tau --n 5 --format json", 0, "c3b81be0b40ba427cd7d7312254b366e66c6c60c2016c00dd6d24ddde7e72a5b"),
    ("tau --n 5 --format latex", 0, "4e89a666c40b836d2098ecf2a281b5567ba95e7de95e685b240453ff3231a0bb"),
    ("log --series 1+x --degree 5 --format text", 0, "44efe55b0fff2f575816e77ff1506953ae3eba4c3d1f79e15c976fbf3f47d991"),
    ("log --series 1+x --degree 5 --format json", 0, "b12096ed7ca126c575483ca08bbb4d384574c995daf47501e9c4a22fe8022248"),
    ("log --series 1+x --degree 5 --format latex", 0, "d0ac091555ce2196968a9e55c5cf7a1c5f9d8d66dc03f6d0565088e22d9041b9"),
    ("log --series exp_l --degree 5 --format text", 0, "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac"),
    ("log --series exp_l --degree 5 --format json", 0, "6069c3e31fe6faca2254f7656351b2dd1daae5ef85927650ba6f922883bf4017"),
    ("log --series exp_l --degree 5 --format latex", 0, "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac"),
    ("log --series exp_r --degree 5 --format text", 0, "d143d2e1e279f1b1d15f26e103660fbd5181255b0c871a7927acef88fa48f13f"),
    ("log --series exp_r --degree 5 --format json", 0, "4681bd027972340ba7861c198494fce825f4980a2e7d37ca86824ebdbadb566e"),
    ("log --series exp_r --degree 5 --format latex", 0, "a5d7f83dacd7e54fff2a3f0809369bbc9de0eadf9d6c85cb8adef9839f4f0b21"),
    ("log --series product --degree 5 --format text", 0, "d3e9fda67ed4857d80993bc36b5ea73f35ecf8d18a7261ed1a81489197a53b6b"),
    ("log --series product --degree 5 --format json", 0, "6ba16c8573896ee6a74f3990c6ed8854b49b2eb97c241d3d0dfcd0e5831f2fbe"),
    ("log --series product --degree 5 --format latex", 0, "c9216d645357700c67bf3a5710fe3085d246c1ff99c53aea4ec2ccee8e5f4636"),
    # captured while route 1 still multiplied Fractions; at the cap its denominators are largest
    ("log --series product --degree 8 --format json", 0, "437ef6ce5b798a1b2618a4cfb47ad0a62257203cdc7dcbceff1faa6581eccb25"),
    ("log --series exp_r --degree 7 --format text", 0, "aa48b5445a741c37abd9db46c04f81b590a8d57519baae0882307bb26621087b"),
    ("bernoulli --k 6 --method woon", 0, "e62791efeb557147a7a73515b6abcbdb1b2c9035e34c9f4241b08f15a874357a"),
    ("bernoulli --k 6 --method fuchs", 0, "e62791efeb557147a7a73515b6abcbdb1b2c9035e34c9f4241b08f15a874357a"),
    ("bernoulli --k 6 --method nj", 0, "e62791efeb557147a7a73515b6abcbdb1b2c9035e34c9f4241b08f15a874357a"),
    ("bernoulli --k 6 --method recurrence", 0, "e62791efeb557147a7a73515b6abcbdb1b2c9035e34c9f4241b08f15a874357a"),
    ("nj --tuple 2,1", 0, "fb2743bec153bc6094fb21d0ce07d780c228581dc696d5832809baff35ccc266"),
    ("coeff --monomial ((xy)(xy)) --method both", 0, "47e2822559ad58d854fc23c657046a0ed6bea56a78433c094c5aef96d5750039"),
    ("check --suite all --degree 4", 0, "453ae1f8a5bc88b07ff49a0c3f8378e9eccb46c01b7b286f7e3428d1c3feb2d0"),
    # these JSON pins were captured while the envelope was still one json.dumps call
    ("bernoulli --k 6 --method recurrence --format json", 0, "8da46cb8f0f6ed5b9e07ec735d7a398487f3a4538eb356dc64e8d0c94bfbd6b8"),
    ("nj --tuple 2,1 --format json", 0, "8145900a0f4e00020b5af23bfbacb851ce7ad99a76c18b5c322d095f9fde06a2"),
    ("coeff --monomial ((xy)(xy)) --method both --format json", 0, "2535e43b07d0a5a7f91b3346e05a5886127acdb41862b0f6897bde6b217e3d9b"),
    ("check --suite all --degree 4 --format json", 0, "fcd224a78e50d01c62cc5a32758febf25b63c18e58b1825540ce06b7d896885a"),
    ("expand --degree 9 --format text", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand --degree 9 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_is_byte_identical(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
