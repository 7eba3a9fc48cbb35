/**
 * @file
 * SN40L chip and node parameters (paper Table II) plus the calibration
 * constants the paper does not print. Everything the cost models
 * consume lives here so experiments can sweep or ablate any of it.
 */

#ifndef SN40L_ARCH_CHIP_CONFIG_H
#define SN40L_ARCH_CHIP_CONFIG_H

#include <cstdint>
#include <string>

#include "sim/ticks.h"
#include "util/units.h"

namespace sn40l::arch {

struct ChipConfig
{
    std::string name = "SN40L";

    // ---- Table II parameters -------------------------------------
    double peakBf16Flops = TFLOPS(638);
    std::int64_t sramBytes = 520 * MiB;
    std::int64_t hbmBytes = 64 * GiB;
    double hbmBandwidth = TBps(1.8);
    std::int64_t ddrBytes = static_cast<std::int64_t>(1.5 * TiB);
    double ddrBandwidth = GBps(200);
    int pcuCount = 1040;
    int pmuCount = 1040;
    double clockGhz = 1.6;       // paper: "< 2 GHz"
    int diesPerSocket = 2;

    // ---- Microarchitecture (Section IV) --------------------------
    int pmuBanks = 16;           ///< SRAM banks per PMU scratchpad
    int vectorLanes = 32;        ///< SIMD lanes per PCU
    int simdStages = 6;          ///< pipelined vector stages per PCU
    int tilesPerDie = 2;         ///< Fig 5: four tiles per socket
    int meshCols = 26;           ///< RDN mesh width per tile
    int meshRows = 10;           ///< RDN mesh height per tile
    int agcusPerTile = 8;        ///< AGCUs on each tile edge (Fig 6)

    double d2dBandwidth = TBps(1.0);   ///< die-to-die streaming
    double p2pBandwidth = GBps(100);   ///< per-socket peer links
    double pcieBandwidth = GBps(25);   ///< host interface
    double rdnLinkBandwidth = GBps(128); ///< per RDN vector-fabric link

    // ---- Efficiencies (calibration; see EXPERIMENTS.md) ----------
    /** Fused dataflow saturates close to 85% of HBM (Section VI-B). */
    double hbmEfficiency = 0.85;
    /** Sustained DDR efficiency; 0.65 x 200 GB/s x 8 sockets gives the
     *  paper's ">1 TB/s" node-aggregate DDR-to-HBM copy rate. */
    double ddrEfficiency = 0.65;
    /** Achievable fraction of peak FLOPs for large systolic stages. */
    double systolicEfficiency = 0.85;
    /** SIMD-pipeline throughput relative to systolic peak. */
    double simdRelativeThroughput = 0.25;
    /** Fraction of PCUs/PMUs usable by one fused kernel ("almost 90%
     *  of the PCUs and PMUs", Section VI-C). */
    double placeableFraction = 0.90;

    // ---- Kernel launch (Section IV-D) -----------------------------
    /** Host-driver cost per software-orchestrated launch (driver
     *  call + completion round trip; calibrated so decode-side
     *  fusion/orchestration gains land in the paper's bands). */
    sim::Tick swLaunchOverhead = sim::fromUs(19.0);
    /** AGCU sequencer cost per hardware-orchestrated launch. */
    sim::Tick hwLaunchOverhead = sim::fromNs(250);
    /** Program Load phase: streaming the kernel's configuration
     *  bitstream into the tile (Section IV-D launch sequence). */
    sim::Tick programLoadOverhead = sim::fromUs(5.0);
    /** Argument Load phase: scalar arguments and descriptors. */
    sim::Tick argumentLoadOverhead = sim::fromUs(1.0);
    /** Pipeline fill latency per fused stage. */
    sim::Tick stageFillLatency = sim::fromNs(400);

    // ---- Unfused execution model ---------------------------------
    /** FLOPs one unfused kernel launch can cover before the compiler
     *  splits it (models per-op tiling into multiple grid launches). */
    double maxFlopsPerUnfusedLaunch = 20e12;
    /** FLOPs needed for an isolated op to reach full utilization;
     *  smaller ops run at proportionally lower utilization. */
    double unfusedSaturationFlops = 2e9;
    /** Utilization floor for tiny unfused ops. */
    double unfusedMinUtilization = 0.05;

    // ---- Derived quantities ---------------------------------------
    double flopsPerPcu() const { return peakBf16Flops / pcuCount; }
    std::int64_t sramPerPmu() const { return sramBytes / pmuCount; }
    std::int64_t pmuBankBytes() const { return sramPerPmu() / pmuBanks; }
    int tileCount() const { return diesPerSocket * tilesPerDie; }
    int pcusPerTile() const { return pcuCount / tileCount(); }
    int pmusPerTile() const { return pmuCount / tileCount(); }
    double effectiveHbmBandwidth() const
    {
        return hbmBandwidth * hbmEfficiency;
    }
    double effectiveDdrBandwidth() const
    {
        return ddrBandwidth * ddrEfficiency;
    }

    /** Validate internal consistency; throws FatalError on nonsense. */
    void validate() const;

    /** The SN40L as shipped (Table II). */
    static ChipConfig sn40l();
};

/** An SN40L node: sockets + host (Section VI: 8-socket node). */
struct NodeConfig
{
    std::string name = "SN40L-Node";
    ChipConfig chip = ChipConfig::sn40l();
    int sockets = 8;

    /** Host DRAM capacity (typical 2-socket x86 host). */
    std::int64_t hostDramBytes = 2 * TiB;

    std::int64_t totalHbmBytes() const { return sockets * chip.hbmBytes; }
    std::int64_t totalDdrBytes() const { return sockets * chip.ddrBytes; }

    static NodeConfig sn40lNode(int sockets = 8);
};

} // namespace sn40l::arch

#endif // SN40L_ARCH_CHIP_CONFIG_H
