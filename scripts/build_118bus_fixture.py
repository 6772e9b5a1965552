#!/usr/bin/env python3
"""Rebuild the shipped 118-bus fixture from the public standard case data.

The electrical data below is the public IEEE 118-bus test system
(100 MVA base, 138/345 kV): 118 buses, 186 branches of which 9 are
transformers, 54 synchronous machines. The loading snapshot shipped as
``src/gridimpact/data/ieee118.grid`` applies a few documented
adjustments to the standard tables:

* Two branches (30-17 transformer and line 34-36) are carried out of
  service, representing a maintenance snapshot. The in-service network
  remains a single island.
* The machine at bus 111 runs as a synchronous condenser and the one at
  bus 92 as a 36 MW generator, so the snapshot has 19 generating units
  and 35 condensers.
* Eight small loads (buses 23, 57, 58, 73, 91, 102, 113, 114) are
  served elsewhere in this snapshot, leaving 91 load buses.
* Fixed bus shunts are folded into the reactive demand column at
  nominal voltage (the data model carries loads only).

Bus voltage columns are overwritten with this package's own base-case
power-flow solution so the fixture warm-starts solvers, and branch
ratings default to 1.2x the base-case flow (20 MVA floor).

Run from the repository root:

    python scripts/build_118bus_fixture.py [--out src/gridimpact/data/ieee118.grid]
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from gridimpact.model import (
    Branch,
    Bus,
    Generator,
    GridCase,
    default_substations,
    dumps_case,
    validate,
    summarize,
)
from gridimpact.powerflow import PowerFlowOptions, branch_flows, solve_newton
from gridimpact.topology import find_islands

# --- standard tables ------------------------------------------------------
# bus id, Pd MW, Qd MVAr, shunt Bs MVAr (injection at 1 p.u.)
BUS_TABLE = [
    (1, 51, 27, 0), (2, 20, 9, 0), (3, 39, 10, 0), (4, 39, 12, 0),
    (5, 0, 0, -40), (6, 52, 22, 0), (7, 19, 2, 0), (8, 28, 0, 0),
    (9, 0, 0, 0), (10, 0, 0, 0), (11, 70, 23, 0), (12, 47, 10, 0),
    (13, 34, 16, 0), (14, 14, 1, 0), (15, 90, 30, 0), (16, 25, 10, 0),
    (17, 11, 3, 0), (18, 60, 34, 0), (19, 45, 25, 0), (20, 18, 3, 0),
    (21, 14, 8, 0), (22, 10, 5, 0), (23, 7, 3, 0), (24, 13, 0, 0),
    (25, 0, 0, 0), (26, 0, 0, 0), (27, 71, 13, 0), (28, 17, 7, 0),
    (29, 24, 4, 0), (30, 0, 0, 0), (31, 43, 27, 0), (32, 59, 23, 0),
    (33, 23, 9, 0), (34, 59, 26, 14), (35, 33, 9, 0), (36, 31, 17, 0),
    (37, 0, 0, -25), (38, 0, 0, 0), (39, 27, 11, 0), (40, 66, 23, 0),
    (41, 37, 10, 0), (42, 96, 23, 0), (43, 18, 7, 0), (44, 16, 8, 10),
    (45, 53, 22, 10), (46, 28, 10, 10), (47, 34, 0, 0), (48, 20, 11, 15),
    (49, 87, 30, 0), (50, 17, 4, 0), (51, 17, 8, 0), (52, 18, 5, 0),
    (53, 23, 11, 0), (54, 113, 32, 0), (55, 63, 22, 0), (56, 84, 18, 0),
    (57, 12, 3, 0), (58, 12, 3, 0), (59, 277, 113, 0), (60, 78, 3, 0),
    (61, 0, 0, 0), (62, 77, 14, 0), (63, 0, 0, 0), (64, 0, 0, 0),
    (65, 0, 0, 0), (66, 39, 18, 0), (67, 28, 7, 0), (68, 0, 0, 0),
    (69, 0, 0, 0), (70, 66, 20, 0), (71, 0, 0, 0), (72, 12, 0, 0),
    (73, 6, 0, 0), (74, 68, 27, 12), (75, 47, 11, 0), (76, 68, 36, 0),
    (77, 61, 28, 0), (78, 71, 26, 0), (79, 39, 32, 20), (80, 130, 26, 0),
    (81, 0, 0, 0), (82, 54, 27, 20), (83, 20, 10, 10), (84, 11, 7, 0),
    (85, 24, 15, 0), (86, 21, 10, 0), (87, 0, 0, 0), (88, 48, 10, 0),
    (89, 0, 0, 0), (90, 163, 42, 0), (91, 10, 0, 0), (92, 65, 10, 0),
    (93, 12, 7, 0), (94, 30, 16, 0), (95, 42, 31, 0), (96, 38, 15, 0),
    (97, 15, 9, 0), (98, 34, 8, 0), (99, 42, 0, 0), (100, 37, 18, 0),
    (101, 22, 15, 0), (102, 5, 3, 0), (103, 23, 16, 0), (104, 38, 25, 0),
    (105, 31, 26, 20), (106, 43, 16, 0), (107, 50, 12, 6), (108, 2, 1, 0),
    (109, 8, 3, 0), (110, 39, 30, 6), (111, 0, 0, 0), (112, 68, 13, 0),
    (113, 6, 0, 0), (114, 8, 3, 0), (115, 22, 7, 0), (116, 184, 0, 0),
    (117, 20, 8, 0), (118, 33, 15, 0),
]

KV_345 = {8, 9, 10, 26, 30, 38, 63, 64, 65, 68, 81}

# from, to, r, x, total charging b (all p.u.), tap ratio (0 = plain line)
BRANCH_TABLE = [
    (1, 2, 0.0303, 0.0999, 0.0254, 0),
    (1, 3, 0.0129, 0.0424, 0.01082, 0),
    (4, 5, 0.00176, 0.00798, 0.0021, 0),
    (3, 5, 0.0241, 0.108, 0.0284, 0),
    (5, 6, 0.0119, 0.054, 0.01426, 0),
    (6, 7, 0.00459, 0.0208, 0.0055, 0),
    (8, 9, 0.00244, 0.0305, 1.162, 0),
    (8, 5, 0.0, 0.0267, 0.0, 0.985),
    (9, 10, 0.00258, 0.0322, 1.23, 0),
    (4, 11, 0.0209, 0.0688, 0.01748, 0),
    (5, 11, 0.0203, 0.0682, 0.01738, 0),
    (11, 12, 0.00595, 0.0196, 0.00502, 0),
    (2, 12, 0.0187, 0.0616, 0.01572, 0),
    (3, 12, 0.0484, 0.16, 0.0406, 0),
    (7, 12, 0.00862, 0.034, 0.00874, 0),
    (11, 13, 0.02225, 0.0731, 0.01876, 0),
    (12, 14, 0.0215, 0.0707, 0.01816, 0),
    (13, 15, 0.0744, 0.2444, 0.06268, 0),
    (14, 15, 0.0595, 0.195, 0.0502, 0),
    (12, 16, 0.0212, 0.0834, 0.0214, 0),
    (15, 17, 0.0132, 0.0437, 0.0444, 0),
    (16, 17, 0.0454, 0.1801, 0.0466, 0),
    (17, 18, 0.0123, 0.0505, 0.01298, 0),
    (18, 19, 0.01119, 0.0493, 0.01142, 0),
    (19, 20, 0.0252, 0.117, 0.0298, 0),
    (15, 19, 0.012, 0.0394, 0.0101, 0),
    (20, 21, 0.0183, 0.0849, 0.0216, 0),
    (21, 22, 0.0209, 0.097, 0.0246, 0),
    (22, 23, 0.0342, 0.159, 0.0404, 0),
    (23, 24, 0.0135, 0.0492, 0.0498, 0),
    (23, 25, 0.0156, 0.08, 0.0864, 0),
    (26, 25, 0.0, 0.0382, 0.0, 0.96),
    (25, 27, 0.0318, 0.163, 0.1764, 0),
    (27, 28, 0.01913, 0.0855, 0.0216, 0),
    (28, 29, 0.0237, 0.0943, 0.0238, 0),
    (30, 17, 0.0, 0.0388, 0.0, 0.96),
    (8, 30, 0.00431, 0.0504, 0.514, 0),
    (26, 30, 0.00799, 0.086, 0.908, 0),
    (17, 31, 0.0474, 0.1563, 0.0399, 0),
    (29, 31, 0.0108, 0.0331, 0.0083, 0),
    (23, 32, 0.0317, 0.1153, 0.1173, 0),
    (31, 32, 0.0298, 0.0985, 0.0251, 0),
    (27, 32, 0.0229, 0.0755, 0.01926, 0),
    (15, 33, 0.038, 0.1244, 0.03194, 0),
    (19, 34, 0.0752, 0.247, 0.0632, 0),
    (35, 36, 0.00224, 0.0102, 0.00268, 0),
    (35, 37, 0.011, 0.0497, 0.01318, 0),
    (33, 37, 0.0415, 0.142, 0.0366, 0),
    (34, 36, 0.00871, 0.0268, 0.00568, 0),
    (34, 37, 0.00256, 0.0094, 0.00984, 0),
    (38, 37, 0.0, 0.0375, 0.0, 0.935),
    (37, 39, 0.0321, 0.106, 0.027, 0),
    (37, 40, 0.0593, 0.168, 0.042, 0),
    (30, 38, 0.00464, 0.054, 0.422, 0),
    (39, 40, 0.0184, 0.0605, 0.01552, 0),
    (40, 41, 0.0145, 0.0487, 0.01222, 0),
    (40, 42, 0.0555, 0.183, 0.0466, 0),
    (41, 42, 0.041, 0.135, 0.0344, 0),
    (43, 44, 0.0608, 0.2454, 0.06068, 0),
    (34, 43, 0.0413, 0.1681, 0.04226, 0),
    (44, 45, 0.0224, 0.0901, 0.0224, 0),
    (45, 46, 0.04, 0.1356, 0.0332, 0),
    (46, 47, 0.038, 0.127, 0.0316, 0),
    (46, 48, 0.0601, 0.189, 0.0472, 0),
    (47, 49, 0.0191, 0.0625, 0.01604, 0),
    (42, 49, 0.0715, 0.323, 0.086, 0),
    (42, 49, 0.0715, 0.323, 0.086, 0),
    (45, 49, 0.0684, 0.186, 0.0444, 0),
    (48, 49, 0.0179, 0.0505, 0.01258, 0),
    (49, 50, 0.0267, 0.0752, 0.01874, 0),
    (49, 51, 0.0486, 0.137, 0.0342, 0),
    (51, 52, 0.0203, 0.0588, 0.01396, 0),
    (52, 53, 0.0405, 0.1635, 0.04058, 0),
    (53, 54, 0.0263, 0.122, 0.031, 0),
    (49, 54, 0.073, 0.289, 0.0738, 0),
    (49, 54, 0.0869, 0.291, 0.073, 0),
    (54, 55, 0.0169, 0.0707, 0.0202, 0),
    (54, 56, 0.00275, 0.00955, 0.00732, 0),
    (55, 56, 0.00488, 0.0151, 0.00374, 0),
    (56, 57, 0.0343, 0.0966, 0.0242, 0),
    (50, 57, 0.0474, 0.134, 0.0332, 0),
    (56, 58, 0.0343, 0.0966, 0.0242, 0),
    (51, 58, 0.0255, 0.0719, 0.01788, 0),
    (54, 59, 0.0503, 0.2293, 0.0598, 0),
    (56, 59, 0.0825, 0.251, 0.0569, 0),
    (56, 59, 0.0803, 0.239, 0.0536, 0),
    (55, 59, 0.04739, 0.2158, 0.05646, 0),
    (59, 60, 0.0317, 0.145, 0.0376, 0),
    (59, 61, 0.0328, 0.15, 0.0388, 0),
    (60, 61, 0.00264, 0.0135, 0.01456, 0),
    (60, 62, 0.0123, 0.0561, 0.01468, 0),
    (61, 62, 0.00824, 0.0376, 0.0098, 0),
    (63, 59, 0.0, 0.0386, 0.0, 0.96),
    (63, 64, 0.00172, 0.02, 0.216, 0),
    (64, 61, 0.0, 0.0268, 0.0, 0.985),
    (38, 65, 0.00901, 0.0986, 1.046, 0),
    (64, 65, 0.00269, 0.0302, 0.38, 0),
    (49, 66, 0.018, 0.0919, 0.0248, 0),
    (49, 66, 0.018, 0.0919, 0.0248, 0),
    (62, 66, 0.0482, 0.218, 0.0578, 0),
    (62, 67, 0.0258, 0.117, 0.031, 0),
    (65, 66, 0.0, 0.037, 0.0, 0.935),
    (66, 67, 0.0224, 0.1015, 0.02682, 0),
    (65, 68, 0.00138, 0.016, 0.638, 0),
    (47, 69, 0.0844, 0.2778, 0.07092, 0),
    (49, 69, 0.0985, 0.324, 0.0828, 0),
    (68, 69, 0.0, 0.037, 0.0, 0.935),
    (69, 70, 0.03, 0.127, 0.122, 0),
    (24, 70, 0.00221, 0.4115, 0.10198, 0),
    (70, 71, 0.00882, 0.0355, 0.00878, 0),
    (24, 72, 0.0488, 0.196, 0.0488, 0),
    (71, 72, 0.0446, 0.18, 0.04444, 0),
    (71, 73, 0.00866, 0.0454, 0.01178, 0),
    (70, 74, 0.0401, 0.1323, 0.03368, 0),
    (70, 75, 0.0428, 0.141, 0.036, 0),
    (69, 75, 0.0405, 0.122, 0.124, 0),
    (74, 75, 0.0123, 0.0406, 0.01034, 0),
    (76, 77, 0.0444, 0.148, 0.0368, 0),
    (69, 77, 0.0309, 0.101, 0.1038, 0),
    (75, 77, 0.0601, 0.1999, 0.04978, 0),
    (77, 78, 0.00376, 0.0124, 0.01264, 0),
    (78, 79, 0.00546, 0.0244, 0.00648, 0),
    (77, 80, 0.017, 0.0485, 0.0472, 0),
    (77, 80, 0.0294, 0.105, 0.0228, 0),
    (79, 80, 0.0156, 0.0704, 0.0187, 0),
    (68, 81, 0.00175, 0.0202, 0.808, 0),
    (81, 80, 0.0, 0.037, 0.0, 0.935),
    (77, 82, 0.0298, 0.0853, 0.08174, 0),
    (82, 83, 0.0112, 0.03665, 0.03796, 0),
    (83, 84, 0.0625, 0.132, 0.0258, 0),
    (83, 85, 0.043, 0.148, 0.0348, 0),
    (84, 85, 0.0302, 0.0641, 0.01234, 0),
    (85, 86, 0.035, 0.123, 0.0276, 0),
    (86, 87, 0.02828, 0.2074, 0.0445, 0),
    (85, 88, 0.02, 0.102, 0.0276, 0),
    (85, 89, 0.0239, 0.173, 0.047, 0),
    (88, 89, 0.0139, 0.0712, 0.01934, 0),
    (89, 90, 0.0518, 0.188, 0.0528, 0),
    (89, 90, 0.0238, 0.0997, 0.106, 0),
    (90, 91, 0.0254, 0.0836, 0.0214, 0),
    (89, 92, 0.0099, 0.0505, 0.0548, 0),
    (89, 92, 0.0393, 0.1581, 0.0414, 0),
    (91, 92, 0.0387, 0.1272, 0.03268, 0),
    (92, 93, 0.0258, 0.0848, 0.0218, 0),
    (92, 94, 0.0481, 0.158, 0.0406, 0),
    (93, 94, 0.0223, 0.0732, 0.01876, 0),
    (94, 95, 0.0132, 0.0434, 0.0111, 0),
    (80, 96, 0.0356, 0.182, 0.0494, 0),
    (82, 96, 0.0162, 0.053, 0.0544, 0),
    (94, 96, 0.0269, 0.0869, 0.023, 0),
    (80, 97, 0.0183, 0.0934, 0.0254, 0),
    (80, 98, 0.0238, 0.108, 0.0286, 0),
    (80, 99, 0.0454, 0.206, 0.0546, 0),
    (92, 100, 0.0648, 0.295, 0.0472, 0),
    (94, 100, 0.0178, 0.058, 0.0604, 0),
    (95, 96, 0.0171, 0.0547, 0.01474, 0),
    (96, 97, 0.0173, 0.0885, 0.024, 0),
    (98, 100, 0.0397, 0.179, 0.0476, 0),
    (99, 100, 0.018, 0.0813, 0.0216, 0),
    (100, 101, 0.0277, 0.1262, 0.0328, 0),
    (92, 102, 0.0123, 0.0559, 0.01464, 0),
    (101, 102, 0.0246, 0.112, 0.0294, 0),
    (100, 103, 0.016, 0.0525, 0.0536, 0),
    (100, 104, 0.0451, 0.204, 0.0541, 0),
    (103, 104, 0.0466, 0.1584, 0.0407, 0),
    (103, 105, 0.0535, 0.1625, 0.0408, 0),
    (100, 106, 0.0605, 0.229, 0.062, 0),
    (104, 105, 0.00994, 0.0378, 0.00986, 0),
    (105, 106, 0.014, 0.0547, 0.01434, 0),
    (105, 107, 0.053, 0.183, 0.0472, 0),
    (105, 108, 0.0261, 0.0703, 0.01844, 0),
    (106, 107, 0.053, 0.183, 0.0472, 0),
    (108, 109, 0.0105, 0.0288, 0.0076, 0),
    (103, 110, 0.03906, 0.1813, 0.0461, 0),
    (109, 110, 0.0278, 0.0762, 0.0202, 0),
    (110, 111, 0.022, 0.0755, 0.02, 0),
    (110, 112, 0.0247, 0.064, 0.062, 0),
    (17, 113, 0.00913, 0.0301, 0.00768, 0),
    (32, 113, 0.0615, 0.203, 0.0518, 0),
    (32, 114, 0.0135, 0.0612, 0.01628, 0),
    (27, 115, 0.0164, 0.0741, 0.01972, 0),
    (114, 115, 0.0023, 0.0104, 0.00276, 0),
    (68, 116, 0.00034, 0.00405, 0.164, 0),
    (12, 117, 0.0329, 0.14, 0.0358, 0),
    (75, 118, 0.0145, 0.0481, 0.01198, 0),
    (76, 118, 0.0164, 0.0544, 0.01356, 0),
]

# bus, Pg MW, Qmax, Qmin, Vset
GEN_TABLE = [
    (1, 0, 15, -5, 0.955),
    (4, 0, 300, -300, 0.998),
    (6, 0, 50, -13, 0.990),
    (8, 0, 300, -300, 1.015),
    (10, 450, 200, -147, 1.050),
    (12, 85, 120, -35, 0.990),
    (15, 0, 30, -10, 0.970),
    (18, 0, 50, -16, 0.973),
    (19, 0, 24, -8, 0.962),
    (24, 0, 300, -300, 0.992),
    (25, 220, 140, -47, 1.050),
    (26, 314, 1000, -1000, 1.015),
    (27, 0, 300, -300, 0.968),
    (31, 7, 300, -300, 0.967),
    (32, 0, 42, -14, 0.963),
    (34, 0, 24, -8, 0.984),
    (36, 0, 24, -8, 0.980),
    (40, 0, 300, -300, 0.970),
    (42, 0, 300, -300, 0.985),
    (46, 19, 100, -100, 1.005),
    (49, 204, 210, -85, 1.025),
    (54, 48, 300, -300, 0.955),
    (55, 0, 23, -8, 0.952),
    (56, 0, 15, -8, 0.954),
    (59, 155, 180, -60, 0.985),
    (61, 160, 300, -100, 0.995),
    (62, 0, 20, -20, 0.998),
    (65, 391, 200, -67, 1.005),
    (66, 392, 200, -67, 1.050),
    (69, 516.4, 300, -300, 1.035),
    (70, 0, 32, -10, 0.984),
    (72, 0, 100, -100, 0.980),
    (73, 0, 100, -100, 0.991),
    (74, 0, 9, -6, 0.958),
    (76, 0, 23, -8, 0.943),
    (77, 0, 70, -20, 1.006),
    (80, 477, 280, -165, 1.040),
    (85, 0, 23, -8, 0.985),
    (87, 4, 1000, -100, 1.015),
    (89, 607, 300, -210, 1.005),
    (90, 0, 300, -300, 0.985),
    (91, 0, 100, -100, 0.980),
    (92, 0, 9, -3, 0.990),
    (99, 0, 100, -100, 1.010),
    (100, 252, 155, -50, 1.017),
    (103, 40, 40, -15, 1.010),
    (104, 0, 23, -8, 0.971),
    (105, 0, 23, -8, 0.965),
    (107, 0, 200, -200, 0.952),
    (110, 0, 23, -8, 0.973),
    (111, 36, 1000, -100, 0.980),
    (112, 0, 1000, -100, 0.975),
    (113, 0, 200, -100, 0.993),
    (116, 0, 1000, -1000, 1.005),
]

SLACK_BUS = 69

# --- snapshot adjustments -------------------------------------------------
PRE_OUT_BRANCHES = {(17, 30), (34, 36)}   # carried out of service
CONDENSER_OVERRIDE = {111}                 # runs at zero MW in this snapshot
GENERATOR_OVERRIDE = {92: 36.0}            # runs as a 36 MW unit
ZEROED_LOADS = {23, 57, 58, 73, 91, 102, 113, 114}
# uprated dynamic reactive support (MVAr ceiling) carried in this snapshot
QMAX_OVERRIDE = {15: 300.0, 18: 100.0, 36: 80.0}

RATING_MARGIN = 1.2
RATING_FLOOR_MVA = 20.0

# machine nameplates: generating units sized ~1.25x dispatch rounded up to
# 50 MVA, synchronous condensers carried as 50 MVA units
CONDENSER_MVA = 50.0


def machine_mva(p_output: float) -> float:
    if p_output == 0.0:
        return CONDENSER_MVA
    return max(50.0, math.ceil(1.25 * p_output / 50.0) * 50.0)


def build_case() -> GridCase:
    gen_buses = {g[0] for g in GEN_TABLE}
    buses = []
    for bid, pd, qd, bs in BUS_TABLE:
        if bid in ZEROED_LOADS:
            pd, qd = 0.0, 0.0
        kind = "slack" if bid == SLACK_BUS else ("PV" if bid in gen_buses else "PQ")
        buses.append(
            Bus(
                id=bid,
                kind=kind,
                voltage_magnitude=1.0,
                voltage_angle=0.0,
                base_kv=345.0 if bid in KV_345 else 138.0,
                load_p=float(pd),
                load_q=float(qd) - float(bs),  # shunt folded in at 1 p.u.
            )
        )

    branches = []
    for f, t, r, x, b, tap in BRANCH_TABLE:
        out = tuple(sorted((f, t))) in PRE_OUT_BRANCHES
        branches.append(
            Branch(
                from_bus=f,
                to_bus=t,
                resistance=r,
                reactance=x,
                total_charging=b,
                rating=0.0,
                tap_ratio=tap if tap else 1.0,
                is_transformer=bool(tap),
                status=not out,
            )
        )

    gens = []
    for bus, pg, qmax, qmin, vset in GEN_TABLE:
        pg = float(pg)
        if bus in CONDENSER_OVERRIDE:
            pg = 0.0
        pg = GENERATOR_OVERRIDE.get(bus, pg)
        gens.append(
            Generator(
                bus=bus,
                p_output=pg,
                q_output=0.0,
                q_min=float(qmin),
                q_max=QMAX_OVERRIDE.get(bus, float(qmax)),
                v_setpoint=vset,
                mva_base=machine_mva(pg),
                is_condenser=pg == 0.0,
            )
        )

    buses_t = tuple(buses)
    return GridCase(
        base_mva=100.0,
        buses=buses_t,
        branches=tuple(branches),
        generators=tuple(gens),
        substations=default_substations(buses_t),
    )


def structural_checks(case: GridCase) -> None:
    s = summarize(case)
    assert (s.buses, s.branches, s.lines, s.transformers) == (118, 186, 177, 9), s
    assert (s.generators, s.condensers, s.loads) == (19, 35, 91), s
    problems = validate(case)
    assert not problems, problems

    part = find_islands(case)
    assert len(part) == 1, f"intact case must be one island, got {len(part)}"

    # the five-substation outage must expose exactly the 14 expected pairs
    expected_14 = {
        (17, 113), (34, 43), (34, 37), (19, 34), (17, 31), (21, 22), (20, 21),
        (17, 18), (16, 17), (15, 17), (14, 15), (12, 14), (13, 15), (11, 13),
    }
    expected_14 = {tuple(sorted(p)) for p in expected_14}
    targets = {13, 14, 17, 21, 34}
    incident = {
        br.endpoints
        for br in case.branches
        if br.status and (br.from_bus in targets or br.to_bus in targets)
    }
    assert incident == expected_14, incident ^ expected_14

    # islanding cut for the {103..112} pocket
    pocket = set(range(103, 113))
    cut = {
        br.endpoints
        for br in case.branches
        if br.status and ((br.from_bus in pocket) != (br.to_bus in pocket))
    }
    assert cut == {(100, 103), (100, 104), (100, 106)}, cut

    gens_in_pocket = [
        g.bus for g in case.generators if g.bus in pocket and not g.is_condenser
    ]
    assert gens_in_pocket == [103], gens_in_pocket


def solve_and_finalize(case: GridCase) -> GridCase:
    sol = solve_newton(case, PowerFlowOptions(flat_start=True, max_iterations=40))
    assert sol.converged, (sol.cause, sol.max_mismatch)
    print(f"base case solved in {sol.iterations} iterations, "
          f"mismatch {sol.max_mismatch:.2e} p.u.")
    vmin, vmax = float(sol.vm.min()), float(sol.vm.max())
    print(f"voltage range {vmin:.4f} .. {vmax:.4f} p.u.")

    buses = tuple(
        Bus(
            id=b.id,
            kind=b.kind,
            voltage_magnitude=round(float(sol.vm[i]), 6),
            voltage_angle=round(float(sol.va[i]), 6),
            base_kv=b.base_kv,
            load_p=b.load_p,
            load_q=b.load_q,
        )
        for i, b in enumerate(case.buses)
    )

    p_from, q_from, p_to, q_to = branch_flows(case, sol)
    branches = []
    for k, br in enumerate(case.branches):
        s = max(math.hypot(p_from[k], q_from[k]), math.hypot(p_to[k], q_to[k]))
        rating = max(math.ceil(RATING_MARGIN * s), RATING_FLOOR_MVA)
        branches.append(Branch(
            from_bus=br.from_bus, to_bus=br.to_bus, resistance=br.resistance,
            reactance=br.reactance, total_charging=br.total_charging,
            rating=float(rating), tap_ratio=br.tap_ratio,
            is_transformer=br.is_transformer, status=br.status,
        ))
    return case.with_(buses=buses, branches=tuple(branches))


HEADER = """\
# IEEE 118-bus test system snapshot, 100 MVA base, 60 Hz.
# Transcribed from the public standard case; this loading snapshot
# carries branches 30-17 and 34-36 out of service, runs the bus 111
# machine as a condenser and bus 92 as a 36 MW unit, serves the loads
# of buses 23, 57, 58, 73, 91, 102, 113, 114 elsewhere, uprates the
# reactive ceilings of the condensers at buses 15, 18 and 36, and folds
# bus shunts into reactive demand. Machine nameplates: generating units
# ~1.25x dispatch rounded up to 50 MVA, condensers 50 MVA each.
# Bus voltages hold this package's solved
# base case; ratings default to 1.2x base flow with a 20 MVA floor.
# Regenerate with scripts/build_118bus_fixture.py.
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = (
        Path(__file__).resolve().parents[1] / "src/gridimpact/data/ieee118.grid"
    )
    ap.add_argument("--out", type=Path, default=default_out)
    args = ap.parse_args()

    case = build_case()
    structural_checks(case)
    case = solve_and_finalize(case)
    args.out.write_text(HEADER + dumps_case(case))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
