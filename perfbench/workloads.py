"""Workloads of the rulex pipeline benchmark.

A workload is a synth config and an EM config.  The run's seed becomes both
the synth seed and the EM seed, so one seed gives one corpus and one training
run.  Each workload has a smoke variant with a few documents and one EM
iteration, which runs in seconds and exercises the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The acceptance replica's shape (bench_synth_config / bench_em_config in
# tests/replica_support.py), copied so that a change to the tests cannot
# change what the benchmark measures.
REPLICA_SYNTH = {
    "relations": 10,
    "planted_rules": ["r0 <- r1", "r3 <- r4", "r6 <- r7 & r8"],
    "docs": 300,
    "entities_per_doc": [4, 6],
    "base_facts_per_doc": [2, 4],
    "chains_per_rule": [1, 2],
    "p_flip": 0.05,
    "jitter": 0.05,
    "p_hide": 0.5,
    "neg_ratio": 3,
    "split": [2 / 3, 1 / 6, 1 / 6],
}
REPLICA_EM = {
    "n_rules": 50,
    "iterations": 10,
    "fit": {"lr": 0.8, "epochs": 35, "l2": 1e-4},
    "convergence_eps": 0.0,
    "inference_mode": "top",
    "train_ruleset_mode": "sample",
    "beam": 200,
}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    em: dict
    smoke: dict = field(default_factory=dict)  # synth overrides of the smoke variant

    def configs(self, seed: int) -> tuple[dict, dict]:
        """(synth section, em section) of the config files for one seed."""
        return {**self.synth, "seed": seed}, {**self.em, "seed": seed}

    def smoke_variant(self) -> "Workload":
        return Workload(self.name + "-smoke", {**self.synth, **self.smoke}, {**self.em, "iterations": 1})


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance replica's documents and knobs, cut to 100 training
        # documents and 3 EM iterations so that a run fits the benchmark's
        # time.  Three iterations keep the replica's layer shares: two E-steps
        # that ground, two sampled M-steps, the final calibration.  100 test
        # documents, not the replica's 50, average inference over more
        # documents so that it differs less from seed to seed; it repeats for
        # INFER_MIN_S anyway, so the run does not get longer.
        Workload(
            "train-std",
            {**REPLICA_SYNTH, "docs": 200, "split": [0.5, 0.0, 0.5]},
            {**REPLICA_EM, "iterations": 3},
            smoke={"docs": 12},
        ),
        # 30 base relations give 60 ids and 219,660 bodies per head, past
        # ENUM_LIMIT: ancestral sampling, the sparse M-step and extractor.fit.
        # 16 training documents keep training within the run; 20 test
        # documents, not 4, average inference throughput over more documents.
        Workload(
            "train-wide",
            {**REPLICA_SYNTH, "relations": 30, "docs": 40, "split": [0.4, 0.1, 0.5]},
            {**REPLICA_EM, "iterations": 1},
            smoke={"docs": 6},
        ),
        # Few training documents and many larger test documents: all-pairs
        # scoring and explanation grounding dominate.  With one EM iteration
        # the learned models, and so the explanation work, vary too much
        # across seeds; two keep inference throughput steady.
        Workload(
            "infer-bulk",
            {**REPLICA_SYNTH, "docs": 300, "entities_per_doc": [8, 12], "split": [1 / 6, 0.0, 5 / 6]},
            {**REPLICA_EM, "iterations": 2},
            smoke={"docs": 12, "split": [0.5, 0.0, 0.5]},
        ),
    )
}
SMOKE = {smoke.name: smoke for smoke in (w.smoke_variant() for w in WORKLOADS.values())}
