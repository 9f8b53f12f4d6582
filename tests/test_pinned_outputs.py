"""Byte-for-byte outputs of fixed configs.

Each run is pinned by the SHA-256 of its trace CSV, of its summary text and
of the bytes of its final state.  The seven presets are the published
outputs; the other configs reach the paths the presets do not: a topology
cycle whose phases differ in link count and do not divide the horizon,
failures drawn in every mode, an early stop, a divergence, ``per_link`` and
``fixed`` delays, a delay bound above 255, a record stride, a box penalty
exponent other than 2, and cost tables that mix penalized and unpenalized
agents (so the per-agent penalty selects run).  Any change
to the step kernel, the cost evaluation, the oracle (whose value sets the
trace's residual column and the summary's oracle lines), or the failure or
delay draws that moves one bit of one output fails here.  The standard output of the
README's ``dra-sim percolation`` example, Monte Carlo estimate included, is
pinned too (its successes per window are pinned in test_percolation.py),
and so is the standard output of ``dra-sim bounds`` for every preset, over
its default smoothness domain and over ``--domain=-5,5``, so a moved
smoothness constant u fails here.
The configs of the presets are pinned by the SHA-256 of their serialized
text, so a changed default that no pinned run reads still fails here.

The pins hold for one numpy build at one CPU dispatch level: they were
recorded with numpy 2.4.6 and its X86_V4 (AVX-512) dispatch on, whose power,
exp and log differ from libm in the last bit on some inputs.  The pytest
header names the build and dispatch of the run.
"""

import hashlib
from dataclasses import replace

import pytest

from dra_sim.cli import main
from dra_sim.scenario import preset, run, serialize_config, summary_to_text, trace_to_csv

PINNED_AT = "pinned with numpy 2.4.6 and X86_V4 dispatch on; the pytest header names this run's"

PRESET_CONFIGS = {
    "fig_dyn": "829fd957f0d744859a4cbf3d7c1a259acee52aee99e627a4514f2f69e1f7cab4",
    "fig_dyn_logpenalty": "e45ce12460980d74936e07515dde5fae343f41e269c1aee5a46f67864fc98098",
    "fig_fail": "3216f01f34fecad06763f3a3aaf2b5bac168c304903a91307f0b25d2fa308c8d",
    "fig_delay": "66fbae96596bd84e3c8d9e814a0c26c83379c3c423fd19b9f41539ecf0cb9cf8",
    "dispatch": "581c4ad46fee341979ebf5d5bc02fd7db8c898efa051daddd267a90cc0ae752a",
    "dispatch_uniform": "126be53421a445db0c3bd2e14040f1a1ef6e5d875461eaa220d84206948035ee",
    "dispatch_adversity": "936c4e515f6b4b7f34e952d413a0e0f44bf5abf62f13c25540aa55e58934f653",
}

PRESETS = {
    "fig_dyn": (
        "fc3b9f62f539eaa268d018f2e0704f4971b62fa0cad98b22584d6e2a27cd0ca0",
        "539a3f3b2103e9d1c2d41a7bde672ec113056144a0d47464a14908c9428d890d",
        "e18d9b8fd75d06e5ea890a8f221ab97f5aeba49a4aa74e5e6078bfe98bc799ff",
    ),
    "fig_dyn_logpenalty": (
        "e32aae7e48ef58b28d7e6c8a5157058f08b3a2589f694dca70142207a6670994",
        "13de95e3428fe2836bfb1aace8a64b795ebf9c23c3bc0fc34c975b8458d3e2fe",
        "2fb2b828b8d12ce9c3118e966f7bf9348456a992c9746f5fe27c990d1aa231ef",
    ),
    "fig_fail": (
        "66fc71087536fa3d02791c861fd3c90ac70b01fe9489cae47b94f4444a1312eb",
        "7536718a707c43d046f28f38b5c119c6d981ca62ce9a79ac8febae8cd033957c",
        "b9ef40a6a1626166efcb6838213a403687f8912c3950242df1bb7ab108c6e5f9",
    ),
    "fig_delay": (
        "b88c556762312d3b169a26c43eaa5d36e54abe63edc415f77b805e6a804dfd25",
        "186bf49a812cc5a1de28bb2378e3257afbe9fcace3142b3e3a409d5e95ecaa2a",
        "3a0cc1aea437a73a72a01b790593f41e0177fb88b8c4d46dc3c4f04ea78d6114",
    ),
    "dispatch": (
        "83f316928ebe51f713a2f31a4bf3e410a48604f4d3e5d3bb68e44c33fafe8fe1",
        "34f6e006e4d7101b7b2c4df668ef5fd4ae114d4a75ef6185dcbf8d0eb2f7fdc1",
        "b2c1c5fe47ccb28954ffce33f67950f503c589f10317368627a93f62e2a245e6",
    ),
    "dispatch_uniform": (
        "d78afe0c488a5c31b618baa70f547e6b166db4bcfaea07e489d0c6306c439926",
        "cad6fde360511064d3a0e5ec806180f97e6d9fd704612d13a94d41d87d52a96f",
        "1df9ccf77d05c73a55fe3e51793053cdd3506e2ec14c2f7f6cf606417569cb4b",
    ),
    "dispatch_adversity": (
        "0e446e0d004e1d2c053f12460e7ae4bda863c8cc6d9054d45af79c00fb56ffad",
        "5678134a5e0cb783acca1b080a16206e35f7b0c2d9877acab543064bcc91fcc8",
        "370ee1c3d4fbb44d55a215c6b62b03b751779cd6d068711784f506942bda9a57",
    ),
}

# name: (preset, overrides, (trace, summary, final state))
VARIANTS = {
    # three graphs with different link counts; 7 does not divide 600
    "cycle_fail": ("fig_fail", dict(topology_kind="cycle", topology_cycle_ps=(0.2, 0.35, 0.1), topology_switch_period=7, p_fail=0.3, horizon=600), (
        "caf5108842c10c600a6d249766ff9d81bf40e12472f18ae1fddb2fe65ca495a0",
        "92d3c68cd0a66b40cf282b0e2a84afcbde9ac03db5d72af1cacd5b6cd79cdd96",
        "ce8dcfa05bff63051d207dc830159e6adbefd9e8202e88290b52b99fefcc545d",
    )),
    # stops at step 1879 of 5000
    "early_stop": ("dispatch_adversity", dict(early_stop_spread=0.5, p_fail=0.2), (
        "6283a8e1a14881c6c612aa2bb180e1c9023ce82997461a6daa8f2be4e4c6740a",
        "5350e723d11569f98105f3a7763cc59a0753fe2e92e5b5b24c1bd0984ea46646",
        "8a41ac11a677a399aa019937cc9f2c7ae1c5a9dbb002e3fea0a302255dc0629d",
    )),
    # one delay per link, with failures
    "per_link": ("fig_delay", dict(delay_mode="per_link", p_fail=0.2, horizon=800), (
        "447f9c14d619025d6d58dee0c4fb86a5bbc780b1f795de0381a86ebbbe4c105b",
        "1a4ab3a1effdef15779fbfaa7e896cc4ca1248abb63f5261021a6ff77017b8fd",
        "fd3a70d006c10b00acc3fbd4e84f34a7ff345f760221ebd2906a78a8ff0dbf3e",
    )),
    # every flow arrives tau_bar steps later
    "fixed": ("fig_delay", dict(delay_mode="fixed", tau_bar=3, horizon=800), (
        "15903ddbcbd832572162d0099dd3f533b3c05a9898189e7d934b2c62b1de660a",
        "e1db0ee80999eab6fe938440d198d7fa9068c6cbc7ae6d060838ea9cacd54baa",
        "ea6103b97adafb874f95a79c5518d55e008d4bc0b22e32bcb392520009bedcaf",
    )),
    # delays up to 300: wider than one byte
    "tau_300": ("dispatch_adversity", dict(tau_bar=300, eta=0.002, horizon=900), (
        "b7b7304d22b9ab78941fa8479f65459a4d91054a0dd8024602ed128831c95401",
        "d39f58b2063226efec425662077899c438c574353df6697410098ff9bf3015b9",
        "15db51ab52bf02675f94857cc43a03c9a6da51d7f1fb0d73c9b257904b1ef71b",
    )),
    # records every 7th step, with failures
    "stride_7": ("fig_dyn", dict(record_stride=7, horizon=1000, p_fail=0.1), (
        "7d819d2c05dfa80b8f3823444f71bf86cd6633ab1982d60d379b1d44215a4a53",
        "75ff579e3c6399373893cfc4ee36baf95c54edc462e35caa55ffbd9ea38faf0f",
        "15a21684044e04d273a0e62872d985dc23f8db74d3df77dad102f842eb7d382d",
    )),
    # stops at step 4; the summary's eta_bound_ratio is computed
    "diverge": ("fig_delay", dict(eta=8.0, horizon=400, p_fail=0.3), (
        "4d1a02547c8708c96598910a38629b67f854ccd3cec249d26d934ce16f548236",
        "21762e2d23d924e7389d7a74ad6c5c18a58af5a2a10acfebb7672b3feab45d4b",
        "cb0f1c43ae78b81a1dc73e89a6aa61f23b0c9fd14927fc029fe5122444b7976a",
    )),
}


def digests(cfg) -> tuple[str, str, str]:
    result = run(cfg)
    return (
        hashlib.sha256(trace_to_csv(result.trace).encode()).hexdigest(),
        hashlib.sha256(summary_to_text(result.summary).encode()).hexdigest(),
        hashlib.sha256(result.final_state.tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("name", list(PRESET_CONFIGS))
def test_preset_configs_are_pinned(name):
    assert hashlib.sha256(serialize_config(preset(name)).encode()).hexdigest() == PRESET_CONFIGS[name]


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_outputs_are_pinned(name):
    assert digests(preset(name)) == PRESETS[name], PINNED_AT


@pytest.mark.parametrize("name", list(VARIANTS))
def test_variant_outputs_are_pinned(name):
    base, overrides, want = VARIANTS[name]
    assert digests(replace(preset(base), **overrides)) == want, PINNED_AT


def mixed_cost_table(n: int = 50) -> str:
    """Quadratic and quartic agents alternate; every third agent has no box."""
    rows = ["i,kind,p1,p2,p3,lo,hi"]
    for i in range(n):
        if i % 2:
            kind, p1, p2 = "quartic", 0.005 + 0.003 * (i % 5), 1.0 + 0.5 * (i % 7)
        else:
            kind, p1, p2 = "quadratic", 0.5 + 0.1 * (i % 4), float(-(i % 5))
        box = ",," if i % 3 == 0 else ",1.0,10.0"
        rows.append(f"{i},{kind},{p1},{p2},0{box}")
    return "\n".join(rows) + "\n"


# name: (overrides of fig_dyn, (trace, summary, final state))
PENALTY_VARIANTS = {
    # every agent boxed with exponent 3: the general power path, no select;
    # an odd exponent and a weight that is not dyadic make w * m inexact, so
    # regrouping w * m * (u**(m-1) - v**(m-1)) moves bits
    "exponent_3": (dict(costs_penalty_exponent=3, costs_penalty_weight=7.3), (
        "efcb1e73fef9102afb8e74fb5b18983b8d1d50f32ca033923f0f237ddb209ead",
        "78352a16c18db2454ba71a7da2667cfcd7128148e6728b830cc11fa58bf29759",
        "88f9a98dd5c492796c312fc4fcfa1aeb7dd21bbf1975a2763bff4e396b15b607",
    )),
    # mixed table, box exponent 3: the power path and the box select
    "table_box_3": (dict(costs_kind="csv", costs_penalty_exponent=3, costs_penalty_weight=7.3), (
        "51d59d9b259270ee98b9499db2a896986fc5482fa6d2ab5c263f3632a35a1287",
        "c8d3cea741b27779afce370fab5aa51bdeef3bf823bf20295bf107f657e07719",
        "4e8a413cf86d03edc691f21bab94f463757221966e696b016f9a1496195624dd",
    )),
    # mixed table, smooth-log penalty: the log select
    "table_log": (dict(costs_kind="csv", costs_penalty="smooth_log"), (
        "c814f757513fce633a5a52871869992b9146aaee5f63a7aaef711ffcc5665092",
        "81ab86815485d7b0e161f1f1e2c00e81304f1351e32b81437cfec1ee38cbed31",
        "205f1c5db3ae54bd8f7f829c009547029b6b8897def20bffbf3f4b4743a3c200",
    )),
}


@pytest.mark.parametrize("name", list(PENALTY_VARIANTS))
def test_penalty_variant_outputs_are_pinned(name, tmp_path):
    overrides, want = PENALTY_VARIANTS[name]
    table = tmp_path / "costs.csv"
    table.write_text(mixed_cost_table())
    cfg = replace(preset("fig_dyn"), horizon=1000, costs_csv=str(table), **overrides)
    assert digests(cfg) == want, PINNED_AT


def test_readme_percolation_stdout_is_pinned(capsys):
    assert main(["percolation", "--n", "50", "--p", "0.2", "--p-fail", "0.85", "--trials", "500"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "25b91c794fe1560f3d40e856a0bc84e240f81ea2cb63707318d3cb9f52b83078"
    ), PINNED_AT


# name: (stdout of bounds --preset name, of bounds --preset name --domain=-5,5)
BOUNDS = {
    "fig_dyn": (
        "e471a217d593a1cf7b2bf9c0e17f4b88312c99bf0dff11cb0055b6c535a4e996",
        "f51a011edbc6c9b87aa1d011bc98a3038d8e0689614cf30182b4501c28bf468d",
    ),
    "fig_dyn_logpenalty": (
        "c132f6a46b79e95fce1c584e688a2679dfce414202942b90ace0981459c721c1",
        "b441bda21304b99b637fdf62225ccd291252d3d967b213685844d73984be4962",
    ),
    "fig_fail": (
        "fe6eaea331b14b8b62ada003c36f4c1daeb369688447ade593e5c735c5a3fa23",
        "85d722a227c56fe70c346a5049e4c2b1dc2e9fb2f1cc7eea6a7b1ee04362a4e3",
    ),
    "fig_delay": (
        "44b4898d4aa03026d4809ca9006f8c356477d7a94f8d783420589d441ad9cafa",
        "5e645d92775be86c87c6e6ec3e69eafbbac55430fa705ccdc17b93a3a0c05021",
    ),
    "dispatch": (
        "831a2b1716d6291db313ba59019afe451b50a9c006bdf6915c13f2a946432c1f",
        "0afbd3b40eb4b9fb6653c58bcec6309dafebd1c97b3e86d65fa65a243b13d688",
    ),
    "dispatch_uniform": (
        "ecd8a86e253b48de3da4005a9be08c455302955d64e82fff0ac12cea6e191f0c",
        "fece1da6e14e7f906eb0db6b6196d1a92ed4439967bc2b27035e7a4b3bc7b549",
    ),
    "dispatch_adversity": (
        "c8176560b4e6466aba3570abcca4e6f63d53541916d72010f3bab1b8254a8cef",
        "1bc97db87c4d0a218efe2568a8b88eb9a73c8133dcb20f36bbee2139bf83af84",
    ),
}


@pytest.mark.parametrize("name", list(BOUNDS))
@pytest.mark.parametrize("domain", ["default", "-5,5"])
def test_bounds_stdout_is_pinned(name, domain, capsys):
    extra = [] if domain == "default" else [f"--domain={domain}"]
    assert main(["bounds", "--preset", name, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS[name][domain != "default"], PINNED_AT
