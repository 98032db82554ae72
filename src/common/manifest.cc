#include "common/manifest.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/serialize.hh"

namespace mct
{

namespace
{

// Key contract of the mct-manifest-v1 document. The doc-contract
// lint cross-checks these spellings against docs/observability.md,
// and the manifest tests assert the writer below emits exactly them.
// mct-lint:doc-keys:begin
const char *const kManifestKeys[] = {
    "schema",
    "run_id",
    "mode",
    "app",
    "config",
    "seed",
    "fault_plan",
    "fingerprint",
    "artifacts",
    "artifacts[].kind",
    "artifacts[].schema",
    "artifacts[].path",
    "artifacts[].bytes",
    "artifacts[].fnv1a",
};
// mct-lint:doc-keys:end

} // namespace

bool
checksumFile(const std::string &path, std::uint64_t &checksum,
             std::uint64_t &bytes)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string content = ss.str();
    checksum = fnv1a(content.data(), content.size());
    bytes = content.size();
    return true;
}

std::string
checksumHex(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

bool
parseChecksumHex(const std::string &hex, std::uint64_t &out)
{
    if (hex.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (const char c : hex) {
        if (c >= '0' && c <= '9')
            v = v << 4 | static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v = v << 4 | static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    out = v;
    return true;
}

std::string
manifestRunId(const std::string &fingerprint)
{
    return checksumHex(fnv1a(fingerprint.data(), fingerprint.size()));
}

std::string
manifestRelative(const std::string &manifestPath,
                 const std::string &artifactPath)
{
    const std::size_t slash = manifestPath.find_last_of('/');
    if (slash == std::string::npos)
        return artifactPath;
    const std::string dir = manifestPath.substr(0, slash + 1);
    if (artifactPath.compare(0, dir.size(), dir) == 0)
        return artifactPath.substr(dir.size());
    return artifactPath;
}

std::string
manifestResolve(const std::string &manifestPath,
                const std::string &artifactPath)
{
    if (!artifactPath.empty() && artifactPath[0] == '/')
        return artifactPath;
    const std::size_t slash = manifestPath.find_last_of('/');
    if (slash == std::string::npos)
        return artifactPath;
    return manifestPath.substr(0, slash + 1) + artifactPath;
}

void
writeManifestJson(std::ostream &os, const RunManifest &m)
{
    std::vector<const ManifestArtifact *> order;
    order.reserve(m.artifacts.size());
    for (const ManifestArtifact &a : m.artifacts)
        order.push_back(&a);
    std::sort(order.begin(), order.end(),
              [](const ManifestArtifact *a, const ManifestArtifact *b) {
                  return a->path < b->path;
              });

    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "mct-manifest-v1");
    w.kv("run_id", m.runId);
    w.kv("mode", m.mode);
    w.kv("app", m.app);
    w.kv("config", m.config);
    w.kv("seed", m.seed);
    w.kv("fault_plan", m.faultPlan);
    w.kv("fingerprint", m.fingerprint);
    w.key("artifacts").beginArray();
    for (const ManifestArtifact *a : order) {
        w.beginObject();
        w.kv("kind", a->kind);
        w.kv("schema", a->schema);
        w.kv("path", a->path);
        w.kv("bytes", a->bytes);
        w.kv("fnv1a", checksumHex(a->checksum));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

bool
publishManifest(const std::string &path, RunManifest &m,
                MissingArtifact missing, std::string &err)
{
    m.runId = manifestRunId(m.fingerprint);
    std::vector<ManifestArtifact> kept;
    for (ManifestArtifact &a : m.artifacts) {
        if (!checksumFile(a.path, a.checksum, a.bytes)) {
            if (missing == MissingArtifact::Skip)
                continue;
            err = "cannot checksum '" + a.path + "'";
            return false;
        }
        a.path = manifestRelative(path, a.path);
        kept.push_back(std::move(a));
    }
    m.artifacts = std::move(kept);
    AtomicFile f(path);
    writeManifestJson(f.stream(), m);
    if (!f.commit()) {
        err = "cannot write '" + path + "'";
        return false;
    }
    return true;
}

const std::vector<std::string> &
manifestDocKeys()
{
    static const std::vector<std::string> keys(
        std::begin(kManifestKeys), std::end(kManifestKeys));
    return keys;
}

} // namespace mct
