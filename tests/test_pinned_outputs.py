"""Byte-for-byte outputs of fixed configs.

Each run is pinned by the SHA-256 of its trace CSV, of its summary text and
of the bytes of its final state.  The seven presets are the published
outputs; the other configs reach the paths the presets do not: a topology
cycle whose phases differ in link count and do not divide the horizon,
failures drawn in every mode, an early stop, a divergence, ``per_link`` and
``fixed`` delays, a delay bound above 255, a record stride, a box penalty
exponent other than 2, and cost tables that mix penalized and unpenalized
agents (so the per-agent penalty selects run).  Any change
to the step kernel, the cost evaluation, or the failure or delay draws that
moves one bit of one output fails here.  The standard output of the
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
        "87dd5ec19b2456450ac37b6cc746931ef88774b82a4790def4e40a4a6369b350",
        "202e6fbb7e993ec3151f190b3007b17d644a69e9a5ba52b2b09615e391497c17",
        "e18d9b8fd75d06e5ea890a8f221ab97f5aeba49a4aa74e5e6078bfe98bc799ff",
    ),
    "fig_dyn_logpenalty": (
        "f18a8781d8f0af83157d395ce081edbcb620aa5634d22400bddf14471ac8fb93",
        "46d21667c5520dcc061a5e32a138751c859f565f0cc2d7f905da6df3e26abcf8",
        "2fb2b828b8d12ce9c3118e966f7bf9348456a992c9746f5fe27c990d1aa231ef",
    ),
    "fig_fail": (
        "2e89ab25335c26db05c3adbb170714ee8fb3ecad3e0cbe636df505237bf6365a",
        "4b0996caf016029bae5c7459782729f938b6d2b23de5da17356577f8238e55f7",
        "b9ef40a6a1626166efcb6838213a403687f8912c3950242df1bb7ab108c6e5f9",
    ),
    "fig_delay": (
        "639d421399c3d4164cf0a0d3e70cac294dad67d0fef1b7632c038265192b1d7d",
        "87cfdc2714dc9822c3fa46e6a81cae4672a25b0e20e518ae0e436bebea6ff5c3",
        "3a0cc1aea437a73a72a01b790593f41e0177fb88b8c4d46dc3c4f04ea78d6114",
    ),
    "dispatch": (
        "bde2a2b62c0a176cbb3dd29ae2ca7e101efcd0da1371a4cf7b49e6958319794e",
        "5a785f023d588ae0a4ce9ff6ed2e20f4aff0e91002c87069320eeaf5edfdc8f3",
        "b2c1c5fe47ccb28954ffce33f67950f503c589f10317368627a93f62e2a245e6",
    ),
    "dispatch_uniform": (
        "6b6cdcbd9a83b2d9aa27016b0ec5a8a1c64a91b71de695aa42811054550343a4",
        "347236ab1fd6b813ee78af9cbc4fa5ee202d4a67f6a390042dab76075b825d67",
        "1df9ccf77d05c73a55fe3e51793053cdd3506e2ec14c2f7f6cf606417569cb4b",
    ),
    "dispatch_adversity": (
        "e44387c75213aa0c87bfc27ee560b426b8450272d5088a7f254220666a8072e1",
        "441fa9bf7746b5bc26c0d7f66351ba6e04c17aa2331bceac647bf9a0c775466c",
        "370ee1c3d4fbb44d55a215c6b62b03b751779cd6d068711784f506942bda9a57",
    ),
}

# name: (preset, overrides, (trace, summary, final state))
VARIANTS = {
    # three graphs with different link counts; 7 does not divide 600
    "cycle_fail": ("fig_fail", dict(topology_kind="cycle", topology_cycle_ps=(0.2, 0.35, 0.1), topology_switch_period=7, p_fail=0.3, horizon=600), (
        "26c45f9561bf3b77348e72889641adeca38bc7058c91b0f99ae66ad6fd7aed94",
        "fc0facc8a2ae6d3be89ee30f37617b8a88ac836d9c17f5d8a80289326a9c74bd",
        "ce8dcfa05bff63051d207dc830159e6adbefd9e8202e88290b52b99fefcc545d",
    )),
    # stops at step 1879 of 5000
    "early_stop": ("dispatch_adversity", dict(early_stop_spread=0.5, p_fail=0.2), (
        "fb49ea11162b64af4badf2f05d1eb4d635f66897354238573f0b883c605f3b16",
        "936254ab18ee5407855edc640eb33103c7613f4fe76ff9bce3c2549c92abfd1c",
        "8a41ac11a677a399aa019937cc9f2c7ae1c5a9dbb002e3fea0a302255dc0629d",
    )),
    # one delay per link, with failures
    "per_link": ("fig_delay", dict(delay_mode="per_link", p_fail=0.2, horizon=800), (
        "1b861e853bfaa55cb95313f5881a13789d0c9723b92130c3524199d8d6e7c751",
        "e73c7ed0fa1220342d30bc30f4088f5ad2ccdf5d6f60048092bc79f77f39707b",
        "fd3a70d006c10b00acc3fbd4e84f34a7ff345f760221ebd2906a78a8ff0dbf3e",
    )),
    # every flow arrives tau_bar steps later
    "fixed": ("fig_delay", dict(delay_mode="fixed", tau_bar=3, horizon=800), (
        "bf433150dae706d898e7f0d368cb387c38778dc44ee39e54697bf5d97078710b",
        "6c8f51c39add78445dc80de3b55be2fab5e9a6c51467477c70a0acabdd1ed806",
        "ea6103b97adafb874f95a79c5518d55e008d4bc0b22e32bcb392520009bedcaf",
    )),
    # delays up to 300: wider than one byte
    "tau_300": ("dispatch_adversity", dict(tau_bar=300, eta=0.002, horizon=900), (
        "ff2befe08e66fb8719736de2554e68611b0bb56ac4990a7328d8a5e5640e2d89",
        "be7ea318dd2bdda8d657cb27172eb37c10cd1f29b0f93f8e8eb46171744e7c42",
        "15db51ab52bf02675f94857cc43a03c9a6da51d7f1fb0d73c9b257904b1ef71b",
    )),
    # records every 7th step, with failures
    "stride_7": ("fig_dyn", dict(record_stride=7, horizon=1000, p_fail=0.1), (
        "fd8ff96c5d1493048d838170ff345790edb42def2f6838d37f39a3527ea09a4e",
        "9084843c3f42529c498f20e52526af8d85ab6a8fbcaafed8cb69b6d3692ba59f",
        "15a21684044e04d273a0e62872d985dc23f8db74d3df77dad102f842eb7d382d",
    )),
    # stops at step 4; the summary's eta_bound_ratio is computed
    "diverge": ("fig_delay", dict(eta=8.0, horizon=400, p_fail=0.3), (
        "8026e16471ffdf6cd15a407bc915233de147785aaf413d6b6df9dfc463c59b2c",
        "18c2bc531e1fa71f031b9516d3f508b8f64d26aa8cdb9d5801ff57c41c44043c",
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
        "41fb17b2f15cd9c32118729898a93260400abbf83da36335168f52d4a5e01c7f",
        "d4afde3bd3dfb81789a29d0a8c1bbc2f332ee7742bff038b56b9697863c17de9",
        "88f9a98dd5c492796c312fc4fcfa1aeb7dd21bbf1975a2763bff4e396b15b607",
    )),
    # mixed table, box exponent 3: the power path and the box select
    "table_box_3": (dict(costs_kind="csv", costs_penalty_exponent=3, costs_penalty_weight=7.3), (
        "32c3ab7b4fd732200b26afc1c2ffbe6f4c2f22c3fb9d0bf2605f02755661c423",
        "f5d25b666816a25bc982579af4ee167c28a5070b87b7023e84106b423780d2a7",
        "4e8a413cf86d03edc691f21bab94f463757221966e696b016f9a1496195624dd",
    )),
    # mixed table, smooth-log penalty: the log select
    "table_log": (dict(costs_kind="csv", costs_penalty="smooth_log"), (
        "8e187db11913601976759bedff65f7c383d81acfb63a4519fc8891d6a70584e9",
        "3cb6f1e0368d5c470d884c3aad79325f8d40d296c12ef148644a8bf055b0e3e7",
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
