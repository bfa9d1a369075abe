"""Walk through the (L, H) level pairs behind each power policy.

Every data subcarrier carries two bits: a BPSK bit in its sign and a
power bit in its amplitude, low L or high H. A policy fixes the energy
budget L^2 + H^2; given H, the low level follows. This script prints the
derived pairs with their detection thresholds, then what the closed forms
say each operating point costs at a couple of SNRs.
"""

from ofdm_spm import (
    Policy,
    SimConfig,
    ber_breakdown,
    detection_threshold,
    power_pair_for,
    reference_pair,
)

SNRS_DB = (10.0, 20.0)


def main():
    print("policy            budget     H        L        threshold")
    for policy in Policy:
        pair = reference_pair(policy)
        t = detection_threshold(pair)
        print(
            f"{policy.value:16s}  {pair.budget:4.1f}    {pair.high:.4f}  "
            f"{pair.low:.4f}   {t:.4f}"
        )

    print()
    print("closed-form total BER at the reference points")
    header = "policy            " + "".join(f"{s:>10.0f} dB" for s in SNRS_DB)
    print(header)
    cfg = SimConfig()  # its snr_convention maps dB to the detector SNR
    for policy in Policy:
        pair = reference_pair(policy)
        cells = "".join(
            f"{ber_breakdown(cfg.detector_snr(s, pair), pair).ber_total:13.5f}"
            for s in SNRS_DB
        )
        print(f"{policy.value:16s}{cells}")

    # The same budget admits many pairs. Push H up and the power bit gets
    # easier while both BPSK points suffer; the sweet spot is interior.
    print()
    print("power-saving budget, a few alternative highs at 10 dB:")
    for h in (1.10, 1.20, 1.35, 1.41):
        pair = power_pair_for(Policy.POWER_SAVING, h)
        print(f"  H = {h:.2f} -> L = {pair.low:.4f}, ber_total = "
              f"{ber_breakdown(cfg.detector_snr(10.0, pair), pair).ber_total:.5f}")


if __name__ == "__main__":
    main()
