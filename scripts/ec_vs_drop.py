#!/usr/bin/env python3
"""Measure the qos-1 error-correction ratio across drop probabilities.

Runs a traffic-free scenario that publishes one gas reading per second and
reports, for each injected drop rate, the fraction of failed deliveries the
retry machinery recovered. With max_retries=m the residual loss should
scale like p^m.

Usage: python3 scripts/ec_vs_drop.py [--messages 3000] [--max-retries 3]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parksim import sim
from parksim.scenario import DashboardConfig, MqttConfig, NetworkConfig, default_scenario
from parksim.stochastic import TrafficProfile


def measure(drop_prob: float, messages: int, max_retries: int, seed: int) -> tuple[float, int]:
    cfg = replace(
        default_scenario(),
        traffic=TrafficProfile(hourly_rates=(0.0,) * 24, dwell_mean_s=600.0),
        duration_s=float(messages + 60),
        gas_sample_period_s=1.0,
        env_sample_period_s=0.0,
        network=NetworkConfig(latency_s=0.05, drop_prob=drop_prob),
        mqtt=MqttConfig(publish_qos=1, ack_timeout_s=2.0, max_retries=max_retries),
        dashboard=DashboardConfig(enabled=True, qos=1),
        seed=seed,
    )
    report = sim.run_scenario(cfg)
    counts = report.aggregator.counts
    corrected = counts["error_corrected"]
    uncorrected = counts["error_uncorrected"]
    total = corrected + uncorrected
    ec = corrected / total if total else 1.0
    return ec, total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=3000)
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print("drop_prob,errors,ec_measured,ec_expected")
    for drop in (0.02, 0.05, 0.1, 0.2, 0.3):
        ec, errors = measure(drop, args.messages, args.max_retries, args.seed)
        expected = 1.0 - drop**args.max_retries
        print(f"{drop:g},{errors},{ec:.5f},{expected:.5f}")


if __name__ == "__main__":
    main()
