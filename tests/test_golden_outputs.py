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
``experiment-plus`` runs ``amp_damp_zz`` and ``fig2b_deconvolution`` from
``initial_state`` ``plus`` with ``--shots 2048 --seed 1``: from ``zeros``
every entry their plans read is +-1, so the sampled cases above draw only
p = 0 or 1 and cannot see a change to the sampler (from ``plus``, <ZZZ> is
0).  ``experiment-grid`` runs ``GRID_EXPERIMENT``, written here: r = 3 terms
over a mu x strength grid, from a matrix initial state, under a bit flip
whose strongest setting gives negative diagonal entries, exact and with
``--shots 1000 --seed 7``.
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
    ("ptm", "bit_flip_n2_correlated"): (0, "70bdb4f2e6983967702224e2929109de0c5f4491317e8d7ab3fdb4b06e0b6219"),
    ("ptm", "bit_flip_n3_correlated"): (0, "58d9a4b1fa3c22dd2d4edd651c87ce140ad59c97689328ca7e3191187a59f3c9"),
    ("ptm", "dephasing_n2"): (0, "2ce727b8504a0d4a1f4e8693b28c01331cae9119924739b2c915aa1f8ff0dbf2"),
    ("ptm", "depolarizing_n1"): (0, "46c99b538a90548c7fa66b7480b47435ad29d6d3a823d21eef0899b498b5ea36"),
    ("ptm", "depolarizing_n3_fig2"): (0, "fa6165d6fd8dae80a20bd5cda1bbbdbe297e7f210b743ffc262c3123735b136d"),
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
    ("characterize-exact", "bit_flip_n2_correlated"): (0, "b82288410490970f20e2873e6d20b9d72c39eebd92889bb6db5e28e79672226a"),
    ("characterize-exact", "bit_flip_n3_correlated"): (0, "37a09748419baf18738d25b065fe7af8a73c749afbc698951d8b261d63d710da"),
    ("characterize-exact", "dephasing_n2"): (0, "84ae169b01cb030c879f5e6058206714706f6709c5404658597b7ea42dac81dc"),
    ("characterize-exact", "depolarizing_n1"): (0, "83e9fc50a332e51a11893e1d434dd4b457a2d4b6671dcaf9c8b5afe6078d42b7"),
    ("characterize-exact", "depolarizing_n3_fig2"): (0, "2453691a615ba344c6f0d4aed664b0fd98cfa15f99d8a6c7447fed98ea43d77a"),
    ("characterize-exact", "pauli_custom_n1"): (0, "3374c5100067ee7d4b3c5211e62661b7c8e2904d2b65c710622b136a8cc2117f"),
    ("deconvolve", "amp_damp_corr"): (0, "73d3ddd78c43f4e2d64c7a6bdef2a04e4976c52b9f3f21c8dc468cb1c033f058"),
    ("deconvolve", "amp_damp_corr_unital"): (0, "03defe0bb2b64b302e72ee6d53f85720b9bab852a002d2976047f8d831b52af1"),
    ("deconvolve", "bit_flip_n1"): (0, "731f9ea31d0440dc7396573a9031d6629bdec256f336a225e044b024ec1d70fa"),
    ("deconvolve", "bit_flip_n2_correlated"): (0, "8ae875c15fcf18c98b81117ca03cc54839fc3a6d68c350e8db32c15c9c63bb6c"),
    ("deconvolve", "bit_flip_n3_correlated"): (0, "1ca07d1ee89cf557cd63e5c0fc0cf5d74d26c8160ad8d1ffe45e9a771c765aca"),
    ("deconvolve", "dephasing_n2"): (0, "567cf91b5fe5535d17106f85209359201c209230614f164275a4a96bb3cfd538"),
    ("deconvolve", "depolarizing_n1"): (0, "99524132c2fea33140c5a41076716e7de2cc67a77f1ede073ee471f391589fdb"),
    ("deconvolve", "depolarizing_n3_fig2"): (0, "8c0040f51ae8447cdc796038191cd1101cf80beb26e014d443f14aec7b4c4418"),
    ("deconvolve", "pauli_custom_n1"): (0, "17b108414c99ecdb2435400287b3405ad3dfa7d88cf582a0dabe56c7ac82ec26"),
    ("experiment", "amp_damp_zz"): (0, "394c652753eb7560d1c6a4f23f307eb615e094f673104304e10da19d35dc258d"),
    ("experiment", "fig2a_mu_sweep"): (0, "34121690d77a54738bac821d962349aeefa6fb6453f25495656ce68236323ada"),
    ("experiment", "fig2b_deconvolution"): (0, "ad356a55ca12e2d0eaf9c3ee732060eba8e7c11186021fb373c2f75a2178552a"),
    ("experiment", "fig2b_exact"): (0, "0e74cf86756d86ea7758868fc0ce3d44f420375ffb632ff149299fa4ff0dd55e"),
    ("experiment-marginal", "amp_damp_zz"): (0, "14626b73d4ada86b86b56836307054a39018d05b5d9a3d452a0e72048edce99b"),
    ("experiment-marginal", "fig2a_mu_sweep"): (0, "44a690fa008b0a5c671e30f19f90c43dd3c362da38944e877749eff0522390fb"),
    ("experiment-marginal", "fig2b_deconvolution"): (0, "1fc3f852d538b5f19c9dbf6bf6109ac35ee4da49c6a5f1fdec6bf28b28671720"),
    ("experiment-marginal", "fig2b_exact"): (0, "1fc3f852d538b5f19c9dbf6bf6109ac35ee4da49c6a5f1fdec6bf28b28671720"),
    ("ptm-json", "amp_damp_corr"): (0, "83c0978cda02022decded44207e0af672b10f39c9d4cb4c47c9d5bc4d191be04"),
    ("ptm-json", "amp_damp_corr_unital"): (0, "ae6eedb9a874d33d58930d6a41614be6891f1a45910d4909ed36fa4aeea329ac"),
    ("ptm-json", "bit_flip_n1"): (0, "5bac3ec64f3bb40c66366cf009894050a5e0546c52b433f289326ef511bc95df"),
    ("ptm-json", "bit_flip_n2_correlated"): (0, "e22c9c6397ef3aa0e8ba7601ae19e9dda09c1003dbb85875f9eee75b48411e44"),
    ("ptm-json", "bit_flip_n3_correlated"): (0, "bd9a923f165f5f76dd484c0ae8cd7d15a164e87f937c583454078308fb229ab2"),
    ("ptm-json", "dephasing_n2"): (0, "cb1237a3e9a4ce5449b24658f8da2076ca6398a2a773216e08d25b71fdf63f94"),
    ("ptm-json", "depolarizing_n1"): (0, "6dfd730ae996f962a0e49974112fc8be2e2d9c7bbb26349dd365a78306a736b3"),
    ("ptm-json", "depolarizing_n3_fig2"): (0, "0ec9609abd5824ece9c05e5b06ac1bf21dd93e362029176fc45a5efc73205fa1"),
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
    ("deconvolve-json", "dephasing_n2"): (0, "4cc404639da9fff613338687b1f4fc0e1a1181f70977c2674f539b8553c7ec92"),
    ("deconvolve-json", "depolarizing_n1"): (0, "da9d4beca802cbed094f40c4f19e6b3cb71e96b81ed7240483286be7e7672a34"),
    ("deconvolve-json", "depolarizing_n3_fig2"): (0, "b8bfd551aca5e56b0a40f7c04985ce23230576842d14088f404fc0222c1ca48c"),
    ("deconvolve-json", "pauli_custom_n1"): (0, "a8ea54d834d17919d70ee2ae844281c73dd11e0bfccb072143c726600d044c82"),
    ("experiment-json", "amp_damp_zz"): (0, "b82ff9319c0a7995b452f9feaca1aba42ca12c912f822071a0bf2dc1feaa234d"),
    ("experiment-plus", "amp_damp_zz"): (0, "5c039dd1116e177eb165735a00def762363f87175886d52a6ab167b7594fcb0d"),
    ("experiment-plus", "fig2b_deconvolution"): (0, "49751c2dec41ccb52464a80af3d827bfeacf41802ca0de82dc45a9121d0999c1"),
    ("experiment-grid", "exact"): (0, "7b5147ae908e0bac6db3d45dd21c1b937503ef5eeb748121f5562f37a1a675f3"),
    ("experiment-grid", "shots1000"): (0, "75033bed1939cbfbd8e9ea7f2fd001149e4628f94ed5d298e3068d7195d8b1e0"),
    ("experiment-json", "fig2a_mu_sweep"): (0, "045b256ef3c6763ec23788b299da2bcfebf6e7b82ce13b478997a5404199c2da"),
    ("experiment-json", "fig2b_deconvolution"): (0, "e276b43f2344c60203b970291779a8578448914846a78c37b93ee7f191359f8c"),
    ("experiment-json", "fig2b_exact"): (0, "5fc0d1bc86563cdd7a89d81342d09123fa3e7bd3e3752cf6203514e26804c9c0"),
    ("ptm-diagonal", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ptm-diagonal", "amp_damp_corr_unital"): (0, "b3dce4a1e37470e211e859777f67ea2a1a31004451c1ef780d113aed83d80fef"),
    ("ptm-diagonal", "bit_flip_n1"): (0, "7f89d2845a1cb22195efdba3bb490624014f23e17107f0df564271a207098b33"),
    ("ptm-diagonal", "bit_flip_n2_correlated"): (0, "0a8a3cb2d5a0894f719dc42ad9128893962836bfbf057b24ddc85557559fb7b9"),
    ("ptm-diagonal", "bit_flip_n3_correlated"): (0, "1ace7d22c7f57522866dedcd390b4a9c91de2b213891b8e18dd18746e09a75ea"),
    ("ptm-diagonal", "dephasing_n2"): (0, "e7665b1801fafab80f98285544258985191335fba502111b9a72f9d0538d2581"),
    ("ptm-diagonal", "depolarizing_n1"): (0, "dcb2a33ee4754dd71c5fbc0521be94bdadca00d3e5a099d2820e48a1f418bfb1"),
    ("ptm-diagonal", "depolarizing_n3_fig2"): (0, "7e07c5543e6ea5cf9ca891587ea50edcca1d2df97b348b73a74ebabe76afe419"),
    ("ptm-diagonal", "pauli_custom_n1"): (0, "d828f77b18e8a2a55b81c60ded1aea53c8f303a882ed1121962ae68994f48db5"),
    ("ptm-diagonal-json", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ptm-diagonal-json", "amp_damp_corr_unital"): (0, "27f548b7fa801a60f610e9f61fc79009eccc58e3f03bb5a7984dc00305ce3925"),
    ("ptm-diagonal-json", "bit_flip_n1"): (0, "d9dec8ff372d7f7780c333d1293a3ca9375bc98fbb961fdb0b611face9c244e9"),
    ("ptm-diagonal-json", "bit_flip_n2_correlated"): (0, "745bd514d3fce4ac2d761dab87a7ff2743747778579961ff7e66a1f52a09cc2c"),
    ("ptm-diagonal-json", "bit_flip_n3_correlated"): (0, "01f9a263941d704fbd45272bd5144abafba82fb09ab0a68e09bed4dc9ce3ed3f"),
    ("ptm-diagonal-json", "dephasing_n2"): (0, "7e0306e670485a9454df989c0afffea307e96c6cba4ff0781d3af717362c0f34"),
    ("ptm-diagonal-json", "depolarizing_n1"): (0, "be4bbb507ce82b3d994cfb1ed6be8c2c8c1daacfdb12926b50456036773b1309"),
    ("ptm-diagonal-json", "depolarizing_n3_fig2"): (0, "737e8ce617c55ce717bbd403d3c6157c844bb1dc4693565698e00c8346bca3c3"),
    ("ptm-diagonal-json", "pauli_custom_n1"): (0, "a707ed8a6560918e9b4a6aec23e8d18f2313c907c7875813822c44b634967f04"),
    ("characterize-entries", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("characterize-entries", "amp_damp_corr_unital"): (0, "c7a9b55d31b8d64f60450f8da555227ebfde5a12461e89d42f451cc06f9e4c9a"),
    ("characterize-entries", "bit_flip_n1"): (0, "467d75c664e2340c06ea325641c1a4c3bdaa96987010ee5b6c9582e3c9e261a2"),
    ("characterize-entries", "bit_flip_n2_correlated"): (0, "4287108ced641e0f930c3e7d0d243886720bcb69d44f8f6938fa168035ff77df"),
    ("characterize-entries", "bit_flip_n3_correlated"): (0, "05d5e01c096edd3fef3d46842076aa628490858f3ebf50ea1612266bba6663da"),
    ("characterize-entries", "dephasing_n2"): (0, "37c72dfe63793acafc7f7fc9da32f3def6ef9b4a1362c8ae81749455824ef0d7"),
    ("characterize-entries", "depolarizing_n1"): (0, "775263beb3908011cdd87c97fd1340b0f4663ca7751de30534896203e8ccefd0"),
    ("characterize-entries", "depolarizing_n3_fig2"): (0, "0f956422e92e1f3db3213d1d0ebd56ba06984c9f7b6fe6c48d169d2ff6d7a929"),
    ("characterize-entries", "pauli_custom_n1"): (0, "aa88d1b934a872c8bea40373735abbebe214e3bff3b0a5f5c58d02d44e21dd95"),
    ("deconvolve-characterization", "amp_damp_corr"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("deconvolve-characterization", "amp_damp_corr_unital"): (0, "03defe0bb2b64b302e72ee6d53f85720b9bab852a002d2976047f8d831b52af1"),
    ("deconvolve-characterization", "bit_flip_n1"): (0, "731f9ea31d0440dc7396573a9031d6629bdec256f336a225e044b024ec1d70fa"),
    ("deconvolve-characterization", "bit_flip_n2_correlated"): (0, "8ae875c15fcf18c98b81117ca03cc54839fc3a6d68c350e8db32c15c9c63bb6c"),
    ("deconvolve-characterization", "bit_flip_n3_correlated"): (0, "1ca07d1ee89cf557cd63e5c0fc0cf5d74d26c8160ad8d1ffe45e9a771c765aca"),
    ("deconvolve-characterization", "dephasing_n2"): (0, "567cf91b5fe5535d17106f85209359201c209230614f164275a4a96bb3cfd538"),
    ("deconvolve-characterization", "depolarizing_n1"): (0, "99524132c2fea33140c5a41076716e7de2cc67a77f1ede073ee471f391589fdb"),
    ("deconvolve-characterization", "depolarizing_n3_fig2"): (0, "8c0040f51ae8447cdc796038191cd1101cf80beb26e014d443f14aec7b4c4418"),
    ("deconvolve-characterization", "pauli_custom_n1"): (0, "17b108414c99ecdb2435400287b3405ad3dfa7d88cf582a0dabe56c7ac82ec26"),
    ("deconvolve-characterization-diagonal", "amp_damp_corr"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("deconvolve-characterization-diagonal", "amp_damp_corr_unital"): (0, "03defe0bb2b64b302e72ee6d53f85720b9bab852a002d2976047f8d831b52af1"),
    ("deconvolve-characterization-diagonal", "bit_flip_n1"): (0, "731f9ea31d0440dc7396573a9031d6629bdec256f336a225e044b024ec1d70fa"),
    ("deconvolve-characterization-diagonal", "bit_flip_n2_correlated"): (0, "8ae875c15fcf18c98b81117ca03cc54839fc3a6d68c350e8db32c15c9c63bb6c"),
    ("deconvolve-characterization-diagonal", "bit_flip_n3_correlated"): (0, "1ca07d1ee89cf557cd63e5c0fc0cf5d74d26c8160ad8d1ffe45e9a771c765aca"),
    ("deconvolve-characterization-diagonal", "dephasing_n2"): (0, "567cf91b5fe5535d17106f85209359201c209230614f164275a4a96bb3cfd538"),
    ("deconvolve-characterization-diagonal", "depolarizing_n1"): (0, "99524132c2fea33140c5a41076716e7de2cc67a77f1ede073ee471f391589fdb"),
    ("deconvolve-characterization-diagonal", "depolarizing_n3_fig2"): (0, "8c0040f51ae8447cdc796038191cd1101cf80beb26e014d443f14aec7b4c4418"),
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
    + [("experiment-plus", CONFIG_DIR / "experiments" / f"{stem}.json")
       for stem in ("amp_damp_zz", "fig2b_deconvolution")]
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

# An r = 3 sweep on the diagonal path: mu x strength grid, a matrix initial
# state (Hermitian, trace 1, with complex coherences), lambda < 0 at p = 0.8.
GRID_EXPERIMENT = {
    "n": 2,
    "channel": {"family": "bit_flip", "n": 2, "p": 0.1, "mu": 0.3},
    "observable": [["ZZ", 1.0], ["XY", -0.5], ["IX", 0.25]],
    "initial_state": [[0.45, 0.1, 0.0, [0.0, -0.25]],
                      [0.1, 0.15, 0.0, 0.0],
                      [0.0, 0.0, 0.1, 0.0],
                      [[0.0, 0.25], 0.0, 0.0, 0.3]],
    "m_max": 6,
    "mu_grid": [0.0, 0.6],
    "strength_grid": [0.05, 0.8],
}

# experiment-grid case -> arguments
GRIDS = {
    "exact": ["--shots", "0"],
    "shots1000": ["--shots", "1000", "--seed", "7"],
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


@pytest.mark.parametrize("case", GRIDS)
def test_grid_experiment_matches_the_recorded_table(case, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRID_EXPERIMENT))
    assert _run(["experiment", "--config", str(path), *GRIDS[case]]) == GOLDEN[("experiment-grid", case)]


def test_exact_reports_deconvolve_as_their_channels():
    # an exact report holds its channel's diagonal bit for bit, and a diagonal
    # full report plans on the diagonal path, so only the source differs
    for (command, stem), (code, digest) in GOLDEN.items():
        if command.startswith("deconvolve-characterization") and code == 0:
            assert (code, digest) == GOLDEN[("deconvolve", stem)], (command, stem)


def test_table_covers_every_case():
    assert set(GOLDEN) == ({(c, p.stem) for c, p in CASES} | {("check-positivity", c) for c in CHECKS}
                           | {("experiment-grid", c) for c in GRIDS})


@pytest.mark.parametrize("module", ["channels", "characterization", "deconvolution", "pauli",
                                    "sampling", "simulator"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"noisedeconv.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
