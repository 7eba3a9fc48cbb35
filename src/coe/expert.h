/**
 * @file
 * Expert models and the expert zoo. Samba-CoE (Section II) composes
 * 150 independently trained Llama2-7B experts plus a router; the zoo
 * abstracts that into parameter-accurate descriptors that the CoE
 * runtime moves between memory tiers.
 */

#ifndef SN40L_COE_EXPERT_H
#define SN40L_COE_EXPERT_H

#include <string>
#include <vector>

#include "models/llm_config.h"

namespace sn40l::coe {

struct ExpertModel
{
    int id = -1;
    std::string name;
    std::string domain; ///< e.g. "math", "code", "law" (Fig 2)
    models::LlmConfig config;

    /** Weight bytes to host/move for this expert. */
    double bytes = 0.0;

    /** Bytes of mutable state that would need copy-back on eviction
     *  (0 for inference-only experts: read-only weights skip the
     *  copy-back, Section V-B). */
    double mutableBytes = 0.0;
};

class ExpertZoo
{
  public:
    /** @return a zoo of @p count identical experts (Samba-CoE). */
    static ExpertZoo uniform(int count, const models::LlmConfig &base);

    /** Pre-size for @p count experts, so add() never regrows. */
    void
    reserve(int count)
    {
        experts_.reserve(static_cast<std::size_t>(count));
    }

    void add(ExpertModel expert);

    int size() const { return static_cast<int>(experts_.size()); }
    const ExpertModel &expert(int id) const;
    const std::vector<ExpertModel> &experts() const { return experts_; }

    double totalBytes() const;
    double maxExpertBytes() const;

  private:
    std::vector<ExpertModel> experts_;
};

} // namespace sn40l::coe

#endif // SN40L_COE_EXPERT_H
