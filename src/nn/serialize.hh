/**
 * @file
 * Text serialization of trained networks.
 *
 * The paper notes that "learned knowledge is kept in MLPs by memorizing
 * their weights and biases" — this module persists exactly that, as the
 * `wcnn-mlp` section inside a serve::ModelBundle artifact (which adds
 * the standardizer moments and schema a correct prediction needs).
 */

#ifndef WCNN_NN_SERIALIZE_HH
#define WCNN_NN_SERIALIZE_HH

#include <iosfwd>
#include <string>

#include "core/error.hh"
#include "nn/mlp.hh"

namespace wcnn {
namespace nn {

/**
 * Error thrown on malformed model files or I/O failure. Kind
 * "io.model". Every deserialization failure — truncation, garbled
 * tokens, impossible counts, non-finite weights — raises this typed
 * error, never a contract abort (malformed files are faults, not
 * bugs).
 */
class SerializeError : public IoError
{
  public:
    /** @param message Description of the parse or I/O fault. */
    explicit SerializeError(const std::string &message)
        : IoError("io.model", message)
    {
    }
};

/**
 * Reads and writes Mlp instances in a line-oriented text format with
 * full double precision, on streams only: the one file format is the
 * bundle, which embeds this section.
 */
class Serializer
{
  public:
    /**
     * Write a network to a stream.
     *
     * @param net Network to persist.
     * @param os  Destination stream.
     */
    static void write(const Mlp &net, std::ostream &os);

    /**
     * Read a network from a stream.
     *
     * @param is Source stream.
     * @throws SerializeError on malformed input.
     */
    static Mlp read(std::istream &is);
};

} // namespace nn
} // namespace wcnn

#endif // WCNN_NN_SERIALIZE_HH
