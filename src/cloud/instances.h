/**
 * @file
 * AWS GPU instance catalog with the paper's On-Demand prices.
 *
 * The paper evaluates 8 real instances (Sec. V) and, where AWS offers
 * no k-GPU instance (e.g. a 3-GPU P2), synthesizes a proxy priced at
 * k/N of the N-GPU instance. Sec. V's final scenario also reprices the
 * catalog with commodity market ratios (1 : 0.31 : 0.18 : 0.05 for
 * V100 : T4 : M60 : K80).
 */

#ifndef CEER_CLOUD_INSTANCES_H
#define CEER_CLOUD_INSTANCES_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hw/gpu_spec.h"

namespace ceer {

namespace io {
class CbfFile;
template <class T>
class FileSchema;
}

namespace cloud {

/** One rentable GPU instance (real or proxy). */
struct GpuInstance
{
    std::string name;    ///< e.g. "p3.2xlarge" or "p2.3gpu-proxy".
    hw::GpuModel gpu;    ///< GPU silicon on the instance.
    int numGpus = 1;     ///< GPUs used for training.
    double hourlyUsd = 0.0; ///< Rental price per hour.
    bool isProxy = false;   ///< Synthesized per the paper's rule.

    /** Dollars per second of use. */
    double perSecondUsd() const { return hourlyUsd / 3600.0; }
};

/** A set of rentable instances with lookup helpers. */
class InstanceCatalog
{
  public:
    /**
     * The paper's AWS On-Demand catalog: the four 1-GPU instances
     * (p3.2xlarge $3.06, p2.xlarge $0.90, g4dn.2xlarge $0.752,
     * g3s.xlarge $0.75), the four multi-GPU instances (p3.8xlarge
     * $12.24, p2.8xlarge $7.20, g4dn.12xlarge $3.912, g3.16xlarge
     * $4.56), and 2/3-GPU proxies priced at k/N of the multi-GPU
     * instance.
     */
    static InstanceCatalog awsOnDemand();

    /**
     * Market-ratio repricing (paper Sec. V, Fig. 12): per-GPU hourly
     * prices $3.06 (P3), $0.95 (G4), $0.55 (G3), $0.15 (P2), with
     * multi-GPU instances linearly scaled.
     */
    static InstanceCatalog marketPriced();

    /** All instances. */
    const std::vector<GpuInstance> &instances() const
    {
        return instances_;
    }

    /** Instance by name; fatals if absent. */
    const GpuInstance &find(const std::string &name) const;

    /** The instance with @p gpu and @p num_gpus; fatals if absent. */
    const GpuInstance &find(hw::GpuModel gpu, int num_gpus) const;

    /**
     * For each family, the largest (most GPUs) instance whose hourly
     * price does not exceed @p hourly_budget + @p tolerance — the
     * paper's hourly-budget scenario selection rule, which tolerates
     * small violations (it admits the $3.06 P3 and $3.42 3-GPU G3
     * under a $3 budget).
     */
    std::vector<GpuInstance> largestPerFamilyWithin(
        double hourly_budget, double tolerance) const;

    /** Adds an instance (used by tests and custom catalogs). */
    void add(GpuInstance instance);

    /**
     * The catalog's columns, which drive both dialects: name, gpu (one
     * of the four modeled silicons), gpus (1..hw::kMaxGpus) and
     * hourly_usd (finite, positive). A user-supplied CSV catalog with
     * the header `name,gpu,gpus,hourly_usd` is the adoption path for
     * other regions, spot pricing, or other clouds' GPU offerings. The
     * proxy flag belongs to the built-in paper catalogs and is not
     * stored, so CSV/CBF conversions are exact both ways.
     */
    static const io::FileSchema<InstanceCatalog> &schema();

    void saveCsv(std::ostream &out) const;
    void saveCbf(std::ostream &out) const;
    static bool tryLoadCbf(const io::CbfFile &file,
                           InstanceCatalog *catalog, std::string *error);
    /** Either dialect, sniffed by magic bytes; untouched on failure. */
    static bool tryLoadFile(const std::string &path,
                            InstanceCatalog *catalog, std::string *error);

    /** tryLoadFile(), fatal on failure. */
    static InstanceCatalog fromFile(const std::string &path);

    /**
     * Deterministic synthetic fleet of @p count instance types across
     * the four modeled GPU silicons (1-8 GPUs each, market-anchored
     * prices with ±30% jitter) for fleet-scale recommendation sweeps.
     * Prices are canonicalized through the CSV %.6g dialect so a
     * generated fleet serializes identically via CSV and CBF.
     */
    static InstanceCatalog syntheticFleet(std::size_t count,
                                          std::uint64_t seed = 42);

  private:
    std::vector<GpuInstance> instances_;
};

} // namespace cloud
} // namespace ceer

#endif // CEER_CLOUD_INSTANCES_H
