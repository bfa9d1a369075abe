"""Monte Carlo sweeps against the closed forms, flat and multipath.

Runs the simulation harness at a reduced symbol count (5000 per point,
so the whole script stays under ~10 s) and prints simulated next to
theoretical rates. The flat-fading run should track theory to within
counting noise; the multipath run shares the per-subcarrier Rayleigh
statistics, so its averages land on the same curves even though gains
are correlated across subcarriers. The multipath records go to a CSV
in a new temporary directory, whose path is printed.
"""

import os
import tempfile

from ofdm_spm import SimConfig, run_baseline_ofdm_bpsk, run_sweep, write_csv

GRID_DB = (0.0, 10.0, 20.0, 30.0)
SYMBOLS = 5000


def show(title, records):
    print(f"# {title}")
    print("snr_db   ber_total_sim   ber_total_theory   throughput")
    for rec in records:
        print(
            f"{rec.snr_db:5.1f}    {rec.ber_total_sim:12.6f}    "
            f"{rec.ber_total_theory:14.6f}    {rec.throughput:8.4f}"
        )
    print()


def main():
    flat = SimConfig(
        channel_mode="flat",
        ofdm_symbols=SYMBOLS,
        snr_db_grid=GRID_DB,
        master_seed=2025,
    )
    show("power saving, flat Rayleigh", run_sweep(flat))

    multi = SimConfig(
        channel_mode="multipath",
        ofdm_symbols=SYMBOLS,
        snr_db_grid=GRID_DB,
        master_seed=2025,
    )
    records = run_sweep(multi)
    show("power saving, multipath profile", records)

    base = run_baseline_ofdm_bpsk(flat)
    show("plain OFDM-BPSK baseline, flat Rayleigh", base)

    out = os.path.join(tempfile.mkdtemp(prefix="ofdm_spm_demo_"), "sweep_multipath.csv")
    write_csv(records, out)
    print(f"multipath records written to {out} (fixed column set, repr floats;")
    print("rerunning with the same seed reproduces the file byte for byte)")


if __name__ == "__main__":
    main()
