/**
 * @file
 * RDU tile: the coarse-grained reconfigurable array of PCUs, PMUs and
 * AGCUs connected by the RDN (Fig 6). The tile exposes the resource
 * pools the compiler's placer draws from and owns the structural
 * models used by micro-level simulations.
 */

#ifndef SN40L_ARCH_TILE_H
#define SN40L_ARCH_TILE_H

#include <memory>
#include <string>
#include <vector>

#include "arch/agcu.h"
#include "arch/chip_config.h"
#include "arch/pcu.h"
#include "arch/pmu.h"
#include "arch/rdn.h"

namespace sn40l::arch {

class Tile
{
  public:
    Tile(const ChipConfig &cfg, std::string name);

    const std::string &name() const { return name_; }
    const ChipConfig &config() const { return cfg_; }

    int numPcus() const { return cfg_.pcusPerTile(); }
    int numPmus() const { return cfg_.pmusPerTile(); }
    std::int64_t sramBytes() const
    {
        return static_cast<std::int64_t>(numPmus()) * cfg_.sramPerPmu();
    }

    RdnMesh &mesh() { return mesh_; }
    const RdnMesh &mesh() const { return mesh_; }

    Pcu &pcuModel() { return pcuModel_; }
    Agcu &agcu() { return agcu_; }

    /** Grid coordinate of the i-th PCU (PCU/PMU pairs tile the mesh). */
    Coord pcuCoord(int index) const;
    Coord pmuCoord(int index) const;

  private:
    const ChipConfig &cfg_;
    std::string name_;
    RdnMesh mesh_;
    Pcu pcuModel_;
    Agcu agcu_;
};

/** A full SN40L socket: all tiles plus per-socket resource totals. */
class RduChip
{
  public:
    explicit RduChip(const ChipConfig &cfg);

    const ChipConfig &config() const { return cfg_; }
    int numTiles() const { return static_cast<int>(tiles_.size()); }
    Tile &tile(int i) { return *tiles_.at(i); }

    int totalPcus() const { return cfg_.pcuCount; }

    /** PCUs a single fused kernel may occupy (placeable fraction). */
    int placeablePcus() const;
    int placeablePmus() const;
    std::int64_t placeableSramBytes() const;

  private:
    ChipConfig cfg_;
    std::vector<std::unique_ptr<Tile>> tiles_;
};

} // namespace sn40l::arch

#endif // SN40L_ARCH_TILE_H
