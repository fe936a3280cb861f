/**
 * @file
 * Hardware model of the generic DNN accelerator template (Fig. 1):
 * several cores (PE array + vector unit + private L0 buffers) sharing a
 * Global Buffer (GBUF) and one DRAM channel.
 *
 * Unit energies parameterize the evaluator; the defaults are
 * representative 12nm-class INT8 constants standing in for the paper's
 * RTL-synthesis numbers (see DESIGN.md, substitutions).
 */
#ifndef SOMA_HW_HARDWARE_H
#define SOMA_HW_HARDWARE_H

#include <string>

#include "common/types.h"

namespace soma {

class MemoryModel;  // hw/memory_model.h

/** Per-access energy constants, in picojoules. */
struct EnergyModel {
    double dram_pj_per_byte = 15.0;  ///< DRAM read or write (LPDDR class)
    double gbuf_pj_per_byte = 1.2;   ///< multi-MB shared SRAM access
    double l0_pj_per_byte = 0.10;    ///< core-private L0 access
    double mac_pj_per_op = 0.08;     ///< one INT8 op (MAC = 2 ops), 12nm
    double vector_pj_per_op = 0.15;  ///< one vector-unit op
};

/**
 * Accelerator configuration. Peak matrix throughput is
 * cores * pe_per_core MACs/cycle; "TOPS" counts 2 ops per MAC at the
 * core clock.
 */
struct HardwareConfig {
    std::string name = "edge";

    int cores = 8;             ///< cores sharing the GBUF
    int pe_rows_per_core = 32; ///< PE array rows (output-channel lanes)
    int pe_cols_per_core = 32; ///< PE array cols (spatial/input lanes)
    double freq_ghz = 1.0;     ///< core and DRAM controller clock

    int vector_lanes_per_core = 64;  ///< vector unit ops/cycle/core

    Bytes gbuf_bytes = 8LL * 1024 * 1024;       ///< shared Global Buffer
    double dram_gbps = 16.0;                    ///< GB/s, unidirectional

    Bytes l0_weight_bytes = 64 * 1024;   ///< per-core WL0
    Bytes l0_act_bytes = 32 * 1024;      ///< per-core AL0
    Bytes l0_out_bytes = 32 * 1024;      ///< per-core OL0

    EnergyModel energy;

    /**
     * DRAM timing backend the parse prices transfers with
     * (hw/memory_model.h).
     * nullptr means the analytical model (MemoryModelOf resolves it
     * to &AnalyticalMemoryModel()). Non-owning:
     * points at a process-wide registry singleton.
     */
    const MemoryModel *memory_model = nullptr;

    /** Peak throughput in ops/second (2 ops per MAC). */
    double PeakOpsPerSecond() const
    {
        return 2.0 * cores * pe_rows_per_core * pe_cols_per_core *
               freq_ghz * 1e9;
    }

    /** Peak throughput in TOPS. */
    double PeakTops() const { return PeakOpsPerSecond() / 1e12; }

    /** Vector throughput in ops/second. */
    double VectorOpsPerSecond() const
    {
        return static_cast<double>(cores) * vector_lanes_per_core *
               freq_ghz * 1e9;
    }

    /** DRAM bandwidth in bytes/second. */
    double DramBytesPerSecond() const { return dram_gbps * 1e9; }

    /** Seconds to move @p bytes over the DRAM channel. */
    double DramSeconds(Bytes bytes) const
    {
        return static_cast<double>(bytes) / DramBytesPerSecond();
    }
};

/**
 * Edge preset: 16 TOPS, 8 MB GBUF, 16 GB/s DRAM (Sec. VI-A1, referencing
 * Snapdragon 8 Gen 3 / Apple A15-A16 class parts).
 */
HardwareConfig EdgeAccelerator();

/**
 * Cloud preset: 128 TOPS, 32 MB GBUF, 128 GB/s DRAM (Orin / TPU-v4i
 * class).
 */
HardwareConfig CloudAccelerator();

/**
 * Copy of @p base with a different GBUF size / DRAM bandwidth (DSE).
 * Arguments must be positive and finite; invalid values are rejected
 * (see ScaledHardware) — passing them here is a programming error and
 * asserts in debug builds, returning @p base unchanged otherwise.
 */
HardwareConfig WithBufferAndBandwidth(const HardwareConfig &base,
                                      Bytes gbuf_bytes, double dram_gbps);

/**
 * Validated scaling: copy of @p base with the given GBUF size and DRAM
 * bandwidth, rejecting zero/negative/non-finite arguments with a clear
 * error instead of letting NaN/inf timings leak into the evaluator.
 * Returns false and sets @p err on rejection (@p out untouched).
 */
bool ScaledHardware(const HardwareConfig &base, Bytes gbuf_bytes,
                    double dram_gbps, HardwareConfig *out,
                    std::string *err);

}  // namespace soma

#endif  // SOMA_HW_HARDWARE_H
