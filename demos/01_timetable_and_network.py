"""Build a timetable and inspect its connection network.

Run from the repository root:  python3 demos/01_timetable_and_network.py
"""

from emu_roster import build_matrices, generate_instance, render_timetable

# A synthetic daily timetable: 3 out-and-back train pairs through depot
# station C, turning back at T1/T2. Fully determined by the seed.
instance = generate_instance(n_pairs=3, n_turnback_stations=2, seed=2024)

print("--- timetable file form ---")
print(render_timetable(instance))

# The connection network: entry (i, j) is how long an EMU waits at a station
# to serve train j right after train i. Pairs meeting at different stations
# cannot connect at all; too-tight same-station pairs roll to the next day.
matrices = build_matrices(instance)

print("--- connection minutes (INF = cannot connect) ---")
print(matrices.dump_tsv("conn"))

print("--- maintenance eligibility (1 = this handover can host a depot visit) ---")
print(matrices.dump_tsv("theta"))

# conn_rows, built on first use, holds the same network as plain lists, None
# where no connection is
waits = [w for row in matrices.conn_rows for w in row if w is not None]
print(f"{len(waits)} feasible connections out of {instance.n * (instance.n - 1)} ordered pairs")
print(f"waiting minutes range: {min(waits)} .. {max(waits)}")
