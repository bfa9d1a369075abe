"""Closed-form BER and throughput curves for all three policies.

No simulation here. The flat-Rayleigh closed forms evaluate instantly,
which makes them the right tool for scanning design spaces; the Monte
Carlo harness (demo 04) then confirms them. Each policy's block is the
`ofdm-spm theory` table for its reference pair on the default grid.
"""

from ofdm_spm import Policy, SimConfig, ber_breakdown, reference_pair, throughput
from ofdm_spm.cli import main as cli_main


def main():
    for policy in Policy:
        pair = reference_pair(policy)
        print(f"# {policy.value}  (L = {pair.low:.4f}, H = {pair.high:.4f})")
        cli_main(["theory", "--policy", policy.value])
        print()

    # The two-bits-per-subcarrier accounting means throughput approaches 2
    # where a plain BPSK grid approaches 1, at equal occupied bandwidth.
    cfg = SimConfig()
    pair = cfg.pair()
    bd = ber_breakdown(cfg.detector_snr(30.0, pair), pair)
    print(
        "power saving at 30 dB reaches "
        f"{throughput(bd.ber_power, bd.ber_bpsk):.4f} bits/s/Hz "
        "of the 2.0 ceiling"
    )


if __name__ == "__main__":
    main()
