"""Golden outputs: every shipped config run through the CLI in-process.

Each case's exit code and the sha256 of its stdout are compared with a
table recorded from the program, so a change that claims byte-identical
output (a deletion, a refactor) is held to it.  On every channel config
the cases are ``ptm`` (full and ``--diagonal-only``, csv and json),
``characterize --shots 500 --seed 3`` (csv and json), ``characterize
--shots 0`` (the full report, exact), ``characterize --entries
1,...,4^n-1`` (every diagonal entry, exact), ``deconvolve --config``
(csv and json) with an observable and a measurement file written here,
and ``deconvolve --characterization`` from the exact full report that
``characterize --out`` writes first and from the exact diagonal report
that ``characterize --entries 1,...,4^n-1 --out`` writes.  On every
experiment config they are ``experiment`` as shipped (csv and json) and
with ``--shots 2048 --seed 1`` and ``"sampling": "marginal"`` (the config
copied to a temp file with the key set, as older configs say it).
``experiment-plus`` runs ``amp_damp_zz`` from ``initial_state`` ``plus``
with ``--shots 2048 --seed 1``: from ``zeros`` every entry its plans read
is +-1, so the sampled case above draws only p = 0 or 1 and cannot see a
change to the sampler.
``check-positivity`` runs at n = 1..4, on one label, and on a passing and
a failing ``--state-file``.  Stderr is not compared: a warning may be added
without changing stdout.
"""

import contextlib
import hashlib
import importlib
import io
import json
import pathlib

import pytest

from noisedeconv.cli import main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
CHANNELS = sorted((CONFIG_DIR / "channels").glob("*.json"))
EXPERIMENTS = sorted((CONFIG_DIR / "experiments").glob("*.json"))

# (command, config stem) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("ptm", "amp_damp_corr"): (0, "7f5c2a7b8acee91dd725de54ba2270896a1232e8842331d5166ceaa6cd7c810a"),
    ("ptm", "amp_damp_corr_unital"): (0, "7f1b64f8a27de58c2b4383792257e60147609c461c6061b9bed37495b66925c9"),
    ("ptm", "bit_flip_n1"): (0, "684134d766781ae46b620b7e9814d353e36c583e60d04dc5642b945bc23aa2a3"),
    ("ptm", "bit_flip_n2_correlated"): (0, "41013ff404fba7ff4ba1db083305b68914db877e404ab15010113b18e0c5d049"),
    ("ptm", "bit_flip_n3_correlated"): (0, "22fe51b14fe671262defda43212b0a4e6fd3fbbeace65f60ea23fe77cf2e2486"),
    ("ptm", "dephasing_n2"): (0, "c49335663b0d07dfd260f5f1c77f6527dcc327e1ffd4707c68b936581d55a33e"),
    ("ptm", "depolarizing_n1"): (0, "30ebd167f411da932a12a033ff131e96a0da94b58c5dcdb27379d15cbe1b15de"),
    ("ptm", "depolarizing_n3_fig2"): (0, "38da1b60c6b0c93ac7d8cffa8405cac2a1c6f76be4e8bb96d767157f4c7ab81b"),
    ("ptm", "pauli_custom_n1"): (0, "002ebaf1a6be75cfaccdc9fbc45b149e78c6d16d71d678acbd946680f7bf3843"),
    ("characterize", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("characterize", "amp_damp_corr_unital"): (0, "aacb0552ee2824056659b673db8e5d5ee0ab52161745b305fadc03732dfe17c3"),
    ("characterize", "bit_flip_n1"): (0, "4800038ad36df6a9e62fa1ee8de9d76fc31edcfa11d2c4ec73818c67978c3556"),
    ("characterize", "bit_flip_n2_correlated"): (0, "bf8baad3b6a2cb2d9d485634ff6a9570e5c00ee4cb6f9bf01c4a14f74ab7e926"),
    ("characterize", "bit_flip_n3_correlated"): (0, "588bb38a6f864a3319d304165ca3401b7beb8f7b3e25d743b344aaa4af1f8d1c"),
    ("characterize", "dephasing_n2"): (0, "5a1ac6fd45dda2834735b464c04f2df00da59a1b870efbe48f94caa5f37dbab2"),
    ("characterize", "depolarizing_n1"): (0, "a28021ee4dd8fdfbc3faaca8924d983ff75cc3c9726feb44c42231b8a106a584"),
    ("characterize", "depolarizing_n3_fig2"): (0, "8c719e5158bf782b48be0dfb0a25883ec9a7946e60174d364390bc957aaf092c"),
    ("characterize", "pauli_custom_n1"): (0, "aa1802d5cbf8b42ba170ff9f5607686334493ec2e1fd847715f404b41d603eca"),
    ("characterize-exact", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("characterize-exact", "amp_damp_corr_unital"): (0, "6867a4c68812c5c28e3a50d2c7c69ffd078b06e38c7f1c83c340dd3217afa1bb"),
    ("characterize-exact", "bit_flip_n1"): (0, "28ad8a86c34adc5c7dd2c1b2ac9cfb5fdf9dab1f810052aa8fdef1c54c48d544"),
    ("characterize-exact", "bit_flip_n2_correlated"): (0, "ddd3653cbf8c03f8515bbac116c149c82c73472c40f542b1dc81924f1211a966"),
    ("characterize-exact", "bit_flip_n3_correlated"): (0, "ebe2de251f9f047ddcdc00c146e19003d66859795090ac2f32e3a2247be28c1a"),
    ("characterize-exact", "dephasing_n2"): (0, "cfaf87b43ee9cd4225ab2245bf74985a6fed90d0e5db1ed442e7cf72cc3e1bc3"),
    ("characterize-exact", "depolarizing_n1"): (0, "184a1b5b48ad660a1756783de5043979d4e26f3d4a35a90e36ffb86921c90b32"),
    ("characterize-exact", "depolarizing_n3_fig2"): (0, "371ef31cf3cdbac6677ced8221bd0271eed2fce9a0286a66822e84db316d6826"),
    ("characterize-exact", "pauli_custom_n1"): (0, "3374c5100067ee7d4b3c5211e62661b7c8e2904d2b65c710622b136a8cc2117f"),
    ("deconvolve", "amp_damp_corr"): (0, "73d3ddd78c43f4e2d64c7a6bdef2a04e4976c52b9f3f21c8dc468cb1c033f058"),
    ("deconvolve", "amp_damp_corr_unital"): (0, "03defe0bb2b64b302e72ee6d53f85720b9bab852a002d2976047f8d831b52af1"),
    ("deconvolve", "bit_flip_n1"): (0, "731f9ea31d0440dc7396573a9031d6629bdec256f336a225e044b024ec1d70fa"),
    ("deconvolve", "bit_flip_n2_correlated"): (0, "8ae875c15fcf18c98b81117ca03cc54839fc3a6d68c350e8db32c15c9c63bb6c"),
    ("deconvolve", "bit_flip_n3_correlated"): (0, "1ca07d1ee89cf557cd63e5c0fc0cf5d74d26c8160ad8d1ffe45e9a771c765aca"),
    ("deconvolve", "dephasing_n2"): (0, "872c9e356cc90dd556705617399dad7ffd3aebd649575f39633402d138497954"),
    ("deconvolve", "depolarizing_n1"): (0, "99524132c2fea33140c5a41076716e7de2cc67a77f1ede073ee471f391589fdb"),
    ("deconvolve", "depolarizing_n3_fig2"): (0, "38e0b229eb58c08de6269a335bcfd8782a1420ccb7ee9dd8d7c6d4aff4240f61"),
    ("deconvolve", "pauli_custom_n1"): (0, "17b108414c99ecdb2435400287b3405ad3dfa7d88cf582a0dabe56c7ac82ec26"),
    ("experiment", "amp_damp_zz"): (0, "394c652753eb7560d1c6a4f23f307eb615e094f673104304e10da19d35dc258d"),
    ("experiment", "fig2a_mu_sweep"): (0, "244e54ae949a32475ab13eb5e0fefd39ed1d082842537ea6db87b47a3476ce50"),
    ("experiment", "fig2b_deconvolution"): (0, "d9c3358bf885426db99956962eef9fb389b900fab66deb480428abb2fa820312"),
    ("experiment", "fig2b_exact"): (0, "afe5f475f77e1d6098f0590fc1a5d2d38d997c3252bd107f56b0af47ed47d38c"),
    ("experiment-marginal", "amp_damp_zz"): (0, "14626b73d4ada86b86b56836307054a39018d05b5d9a3d452a0e72048edce99b"),
    ("experiment-marginal", "fig2a_mu_sweep"): (0, "62bb5a59b1c283d9f5cf01d791335f5933e58335bd8c216b3493a6a2f3b48ee3"),
    ("experiment-marginal", "fig2b_deconvolution"): (0, "f80ac478d27a7e0c889b93de4f7155553206f2970ecbd2a70e6186faeee3f8b2"),
    ("experiment-marginal", "fig2b_exact"): (0, "f80ac478d27a7e0c889b93de4f7155553206f2970ecbd2a70e6186faeee3f8b2"),
    ("ptm-json", "amp_damp_corr"): (0, "83c0978cda02022decded44207e0af672b10f39c9d4cb4c47c9d5bc4d191be04"),
    ("ptm-json", "amp_damp_corr_unital"): (0, "ae6eedb9a874d33d58930d6a41614be6891f1a45910d4909ed36fa4aeea329ac"),
    ("ptm-json", "bit_flip_n1"): (0, "5bac3ec64f3bb40c66366cf009894050a5e0546c52b433f289326ef511bc95df"),
    ("ptm-json", "bit_flip_n2_correlated"): (0, "111117d2484fef2a46ef9bc2358b7ac156afaf1a1995b8214a590e43f3cdb90a"),
    ("ptm-json", "bit_flip_n3_correlated"): (0, "4732ac78a3413c5d6be0e8d0e08d7dc574b386a403051b2338062fc218124424"),
    ("ptm-json", "dephasing_n2"): (0, "b747bba8d09863d8d1b815e1a28b2aed5d5963e69065ca98e59d3109a77de682"),
    ("ptm-json", "depolarizing_n1"): (0, "ab4fb6da748948e2956ca7d7a8a83a2fc95baab601b316cb22ef7619495f0fc9"),
    ("ptm-json", "depolarizing_n3_fig2"): (0, "dbea411f66887c59ca67f5da1d764bd41c58518f63df1b6009ad49388255c6d4"),
    ("ptm-json", "pauli_custom_n1"): (0, "9ca5c78cc6129695efb7423c873b6aac1a0a5679c4f9521b08445eab6600fddb"),
    ("characterize-json", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("characterize-json", "amp_damp_corr_unital"): (0, "c1102f3efca7c0fa058fc08732cd7e1498d1f050b9a0449bfed1dce19bbb2a20"),
    ("characterize-json", "bit_flip_n1"): (0, "a03ac559bc689a6ae382e4bf8e6c0ad929811932dd591647e8254915220ae96d"),
    ("characterize-json", "bit_flip_n2_correlated"): (0, "7372b2b6ec2dba75c84d368d6ab8b72d7beff8a5e3ed06d58c02a5bb42109f38"),
    ("characterize-json", "bit_flip_n3_correlated"): (0, "7c635afe9f9791fadbbc454d4e96bdd54fd531b99510a7affabe611539d25e80"),
    ("characterize-json", "dephasing_n2"): (0, "2cf9d1139d754c953a51e84ed3e1b231245589ccfe9579fe6ec43b2f7cdda709"),
    ("characterize-json", "depolarizing_n1"): (0, "c4cbdc2826dffe32859cdcc66fb28034a205bb5c84a2733e8c60c873c550e014"),
    ("characterize-json", "depolarizing_n3_fig2"): (0, "50097795efec7e3e0ccacfe2d7e5c0548be4624ae016b1c95dfc84f10a79d52b"),
    ("characterize-json", "pauli_custom_n1"): (0, "b8a2a6dc7be87579e0d9121afc185ebca796b8734741d36d396c272755bc0484"),
    ("deconvolve-json", "amp_damp_corr"): (0, "0f6e12faf92bb97918259fab1e39ce3e0825ba37c2d371461e3901807c56d24b"),
    ("deconvolve-json", "amp_damp_corr_unital"): (0, "9df1f7a544283e09c075e727f456e02e5b2d660233c42fe3085f7d3ee955b8fa"),
    ("deconvolve-json", "bit_flip_n1"): (0, "7cc94ad25e12d48c50accbf6aa345bf99037fe62ac4e11b3b7e354cac254aeed"),
    ("deconvolve-json", "bit_flip_n2_correlated"): (0, "a0163551bb9272263edd4e838a27a5330a223b2da5daf05e38ca3db5831e22a7"),
    ("deconvolve-json", "bit_flip_n3_correlated"): (0, "4bd1e00c6a68dfee96bffdc411a13a59124727ec871c68bb986f367242b2da66"),
    ("deconvolve-json", "dephasing_n2"): (0, "1eeb124c8957ac3906ccad961e1864421a71f115e26be3cd49ed44fda040d82a"),
    ("deconvolve-json", "depolarizing_n1"): (0, "da9d4beca802cbed094f40c4f19e6b3cb71e96b81ed7240483286be7e7672a34"),
    ("deconvolve-json", "depolarizing_n3_fig2"): (0, "130e1e8e609e1e8257ed2e8742a0e76d069e617141b77c6ffa16751c55eb86cd"),
    ("deconvolve-json", "pauli_custom_n1"): (0, "a8ea54d834d17919d70ee2ae844281c73dd11e0bfccb072143c726600d044c82"),
    ("experiment-json", "amp_damp_zz"): (0, "b82ff9319c0a7995b452f9feaca1aba42ca12c912f822071a0bf2dc1feaa234d"),
    ("experiment-plus", "amp_damp_zz"): (0, "5c039dd1116e177eb165735a00def762363f87175886d52a6ab167b7594fcb0d"),
    ("experiment-json", "fig2a_mu_sweep"): (0, "52ff16d955d297a66b28628d4c4fec9e3eea3662e27307472d389bf88ab11d57"),
    ("experiment-json", "fig2b_deconvolution"): (0, "990d83eac8d33a1a0e0adb35c8d4346eccd10a763ca028d67f49cc18b68fdea3"),
    ("experiment-json", "fig2b_exact"): (0, "814a0e544c0c51c055ae130465efaa9249dae89c557831d4a6be981c7df91e0b"),
    ("ptm-diagonal", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ptm-diagonal", "amp_damp_corr_unital"): (0, "b3dce4a1e37470e211e859777f67ea2a1a31004451c1ef780d113aed83d80fef"),
    ("ptm-diagonal", "bit_flip_n1"): (0, "7f89d2845a1cb22195efdba3bb490624014f23e17107f0df564271a207098b33"),
    ("ptm-diagonal", "bit_flip_n2_correlated"): (0, "a07782c581b95c6b7e316562a1a09e4ff8723e653599a42e085645b20f7389b9"),
    ("ptm-diagonal", "bit_flip_n3_correlated"): (0, "4e3f14558716722c08a56fadd0de50a02c377892e39dcb49af80de82bb632082"),
    ("ptm-diagonal", "dephasing_n2"): (0, "da14e1408b919fe9fe57324ce022d436e7e10e95c8ac958fd7b5277047890e62"),
    ("ptm-diagonal", "depolarizing_n1"): (0, "c1c942c869b45ec7dd648478fce65ba60e23ad7a9ef78f0c7ee97d074889917f"),
    ("ptm-diagonal", "depolarizing_n3_fig2"): (0, "b1af23485086fe9ed51f5a88088f4b1278e06321948c253c8c5943fcaf26433f"),
    ("ptm-diagonal", "pauli_custom_n1"): (0, "d828f77b18e8a2a55b81c60ded1aea53c8f303a882ed1121962ae68994f48db5"),
    ("ptm-diagonal-json", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ptm-diagonal-json", "amp_damp_corr_unital"): (0, "27f548b7fa801a60f610e9f61fc79009eccc58e3f03bb5a7984dc00305ce3925"),
    ("ptm-diagonal-json", "bit_flip_n1"): (0, "d9dec8ff372d7f7780c333d1293a3ca9375bc98fbb961fdb0b611face9c244e9"),
    ("ptm-diagonal-json", "bit_flip_n2_correlated"): (0, "51712c57260417e983c8f8eb93fd205ba825af10550e0e7d55b8b27dd04fa109"),
    ("ptm-diagonal-json", "bit_flip_n3_correlated"): (0, "57c08fbfc0f38e2a04ce7e6f29e5a45669b23481cabfabe1fc8a4bb87758d21f"),
    ("ptm-diagonal-json", "dephasing_n2"): (0, "3f650dd13e05ebe23d61f7a18706ecae995f5d65a70a28b5c730880f24bc66e7"),
    ("ptm-diagonal-json", "depolarizing_n1"): (0, "7668fe37a4fd8243db5f825395eeae00a78d9bd6bfd44e199f517391053c728b"),
    ("ptm-diagonal-json", "depolarizing_n3_fig2"): (0, "dc4776db90c173fa74392f6b5f3ceedbc7f26f2183348b918c1a272ba65ea688"),
    ("ptm-diagonal-json", "pauli_custom_n1"): (0, "a707ed8a6560918e9b4a6aec23e8d18f2313c907c7875813822c44b634967f04"),
    ("characterize-entries", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("characterize-entries", "amp_damp_corr_unital"): (0, "c7a9b55d31b8d64f60450f8da555227ebfde5a12461e89d42f451cc06f9e4c9a"),
    ("characterize-entries", "bit_flip_n1"): (0, "467d75c664e2340c06ea325641c1a4c3bdaa96987010ee5b6c9582e3c9e261a2"),
    ("characterize-entries", "bit_flip_n2_correlated"): (0, "10ba9e41107dce7a83bc840cc5a8d33aec5ddcfa3e25764ab2b31f0e9db4d426"),
    ("characterize-entries", "bit_flip_n3_correlated"): (0, "d746f6ef541db245cb9df99bac9b3d0981cf56d021e7d83749d2ae3abb2c8acd"),
    ("characterize-entries", "dephasing_n2"): (0, "78b6d0cefb64cfecbdf99ad7f1a93dcd23404ea12411815c11da09a82832e506"),
    ("characterize-entries", "depolarizing_n1"): (0, "b42820bb31626eb655940b1238fdf69974b715fbf2c64feb15c1ef3de5b1c372"),
    ("characterize-entries", "depolarizing_n3_fig2"): (0, "d4b58a8c62b7e571293fbdf939986654106d54e8ddbc1722707ac29018643bb8"),
    ("characterize-entries", "pauli_custom_n1"): (0, "aa88d1b934a872c8bea40373735abbebe214e3bff3b0a5f5c58d02d44e21dd95"),
    ("deconvolve-characterization", "amp_damp_corr"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("deconvolve-characterization", "amp_damp_corr_unital"): (0, "03defe0bb2b64b302e72ee6d53f85720b9bab852a002d2976047f8d831b52af1"),
    ("deconvolve-characterization", "bit_flip_n1"): (0, "731f9ea31d0440dc7396573a9031d6629bdec256f336a225e044b024ec1d70fa"),
    ("deconvolve-characterization", "bit_flip_n2_correlated"): (0, "8ae875c15fcf18c98b81117ca03cc54839fc3a6d68c350e8db32c15c9c63bb6c"),
    ("deconvolve-characterization", "bit_flip_n3_correlated"): (0, "1ca07d1ee89cf557cd63e5c0fc0cf5d74d26c8160ad8d1ffe45e9a771c765aca"),
    ("deconvolve-characterization", "dephasing_n2"): (0, "872c9e356cc90dd556705617399dad7ffd3aebd649575f39633402d138497954"),
    ("deconvolve-characterization", "depolarizing_n1"): (0, "99524132c2fea33140c5a41076716e7de2cc67a77f1ede073ee471f391589fdb"),
    ("deconvolve-characterization", "depolarizing_n3_fig2"): (0, "38e0b229eb58c08de6269a335bcfd8782a1420ccb7ee9dd8d7c6d4aff4240f61"),
    ("deconvolve-characterization", "pauli_custom_n1"): (0, "17b108414c99ecdb2435400287b3405ad3dfa7d88cf582a0dabe56c7ac82ec26"),
    ("deconvolve-characterization-diagonal", "amp_damp_corr"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("deconvolve-characterization-diagonal", "amp_damp_corr_unital"): (0, "03defe0bb2b64b302e72ee6d53f85720b9bab852a002d2976047f8d831b52af1"),
    ("deconvolve-characterization-diagonal", "bit_flip_n1"): (0, "731f9ea31d0440dc7396573a9031d6629bdec256f336a225e044b024ec1d70fa"),
    ("deconvolve-characterization-diagonal", "bit_flip_n2_correlated"): (0, "8ae875c15fcf18c98b81117ca03cc54839fc3a6d68c350e8db32c15c9c63bb6c"),
    ("deconvolve-characterization-diagonal", "bit_flip_n3_correlated"): (0, "1ca07d1ee89cf557cd63e5c0fc0cf5d74d26c8160ad8d1ffe45e9a771c765aca"),
    ("deconvolve-characterization-diagonal", "dephasing_n2"): (0, "872c9e356cc90dd556705617399dad7ffd3aebd649575f39633402d138497954"),
    ("deconvolve-characterization-diagonal", "depolarizing_n1"): (0, "99524132c2fea33140c5a41076716e7de2cc67a77f1ede073ee471f391589fdb"),
    ("deconvolve-characterization-diagonal", "depolarizing_n3_fig2"): (0, "38e0b229eb58c08de6269a335bcfd8782a1420ccb7ee9dd8d7c6d4aff4240f61"),
    ("deconvolve-characterization-diagonal", "pauli_custom_n1"): (0, "17b108414c99ecdb2435400287b3405ad3dfa7d88cf582a0dabe56c7ac82ec26"),
    ("check-positivity", "n1"): (0, "ae19b1c9bdb0a55451136af2ef00b76688ef8c16819d018d8a273fd806b5f603"),
    ("check-positivity", "n2"): (0, "85fb8602ce2f27d62e09b5f29818515bffc51303f82da7a368caa23a14d1dc69"),
    ("check-positivity", "n3"): (0, "75dd7a06a5d2b391ba06129afb0cede1da4eb0532562af1e0def4889f8dd59ac"),
    ("check-positivity", "n4"): (0, "635f8140b6788914f24955e1123a683c0ec60d97649ced7d627c2c773a2a1789"),
    ("check-positivity", "n2-kZZ"): (0, "27a924ad67e2d628162429796e28f9efdc787545818b28de1d78a590679d9eea"),
    ("check-positivity", "state-pass"): (0, "5d735b98fceaa200fa5dcdc65812e9f484c4c0aa44a8b19750e58d3938535c3e"),
    ("check-positivity", "state-fail"): (3, "b9efaab0505034e78ffc4c0483c85d55c9ae97b9ef2f3c3c022ed982116d4417"),
}


def _label(k, n):
    return "".join("IXYZ"[(k >> 2 * (n - 1 - q)) & 3] for q in range(n))


def _deconvolve_inputs(tmp_path, n):
    """An observable of three terms and one measurement row per Pauli string
    on n qubits, with values fixed by the index alone."""
    obs = tmp_path / "obs.txt"
    obs.write_text(f"{'Z' * n} 1.0\n{'X' * n} 0.5\n{'Y' + 'I' * (n - 1)} -0.25\n")
    meas = tmp_path / "meas.txt"
    meas.write_text("".join(
        f"{_label(j, n)} {((37 * j) % 101) / 101 - 0.5:.6f} {0.001 * (1 + j % 7):.4f}\n"
        for j in range(4**n)))
    return ["--observable", str(obs), "--measurements", str(meas)]


def _n(path):
    return json.loads(path.read_text()).get("n", 2)  # amp_damp_corr is fixed at n = 2


CASES = (
    [("ptm", p) for p in CHANNELS]
    + [("characterize", p) for p in CHANNELS]
    + [("characterize-exact", p) for p in CHANNELS]
    + [("deconvolve", p) for p in CHANNELS]
    + [("experiment", p) for p in EXPERIMENTS]
    + [("experiment-marginal", p) for p in EXPERIMENTS]
    + [(f"{c}-json", p) for c in ("ptm", "characterize", "deconvolve") for p in CHANNELS]
    + [("experiment-json", p) for p in EXPERIMENTS]
    + [("experiment-plus", CONFIG_DIR / "experiments" / "amp_damp_zz.json")]
    + [(c, p) for c in ("ptm-diagonal", "ptm-diagonal-json", "characterize-entries",
                        "deconvolve-characterization", "deconvolve-characterization-diagonal")
       for p in CHANNELS]
)

# check-positivity case -> arguments; the state files are written by the test
CHECKS = {
    "n1": ["--n", "1"],
    "n2": ["--n", "2"],
    "n3": ["--n", "3"],
    "n4": ["--n", "4"],
    "n2-kZZ": ["--n", "2", "--k", "ZZ"],
    "state-pass": ["--state-file", "pass.json"],
    "state-fail": ["--state-file", "fail.json"],
}


def _run(*argvs):
    """Exit code of the last command and sha256 of all their stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            rc = main(argv)
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def run_case(command, path, tmp_path):
    """Exit code and sha256 of stdout of one golden case."""
    name, _, variant = command.partition("-")
    if variant in ("marginal", "plus"):
        key = "sampling" if variant == "marginal" else "initial_state"
        cfg = dict(json.loads(path.read_text()), **{key: variant})
        path = tmp_path / path.name
        path.write_text(json.dumps(cfg))
    argv = [name, "--config", str(path)]
    if variant.endswith("json"):
        argv += ["--format", "json"]
    if variant.startswith("diagonal"):
        argv += ["--diagonal-only"]
    if command in ("characterize", "characterize-json"):
        argv += ["--shots", "500", "--seed", "3"]
    elif command == "characterize-exact":
        argv += ["--shots", "0"]
    elif command == "characterize-entries":
        argv += ["--entries", ",".join(map(str, range(1, 4**_n(path))))]
    elif variant in ("marginal", "plus"):
        argv += ["--shots", "2048", "--seed", "1"]
    elif command.startswith("deconvolve-characterization"):
        report = str(tmp_path / "report.txt")
        characterize = ["characterize", "--config", str(path), "--shots", "0", "--out", report]
        if command.endswith("diagonal"):
            characterize += ["--entries", ",".join(map(str, range(1, 4**_n(path))))]
        argv = ["deconvolve", "--characterization", report, *_deconvolve_inputs(tmp_path, _n(path))]
        return _run(characterize, argv)
    elif name == "deconvolve":
        argv += _deconvolve_inputs(tmp_path, _n(path))
    return _run(argv)


@pytest.mark.parametrize("command, path", CASES, ids=[f"{c}-{p.stem}" for c, p in CASES])
def test_output_matches_the_recorded_table(command, path, tmp_path):
    assert run_case(command, path, tmp_path) == GOLDEN[(command, path.stem)]


@pytest.mark.parametrize("case", CHECKS)
def test_check_positivity_matches_the_recorded_table(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the state-file line echoes the path as given
    (tmp_path / "pass.json").write_text("[[0.75, 0.25], [0.25, 0.25]]")
    (tmp_path / "fail.json").write_text("[[1.5, 0.0], [0.0, -0.5]]")
    assert _run(["check-positivity", *CHECKS[case]]) == GOLDEN[("check-positivity", case)]


def test_exact_reports_deconvolve_as_their_channels():
    # an exact report holds its channel's diagonal bit for bit, and a diagonal
    # full report plans on the diagonal path, so only the source differs
    for (command, stem), (code, digest) in GOLDEN.items():
        if command.startswith("deconvolve-characterization") and code == 0:
            assert (code, digest) == GOLDEN[("deconvolve", stem)], (command, stem)


def test_table_covers_every_case():
    assert set(GOLDEN) == {(c, p.stem) for c, p in CASES} | {("check-positivity", c) for c in CHECKS}


@pytest.mark.parametrize("module", ["channels", "characterization", "deconvolution", "pauli",
                                    "sampling", "simulator"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"noisedeconv.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
