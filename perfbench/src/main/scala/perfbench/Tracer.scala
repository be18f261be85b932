package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** In-memory spans and counts for a traced run. Each detection (or set-up)
  * is one operation; every call into a layer's public entry point made by
  * the benchmark is a span tagged with that operation and its parent span.
  * Spans are written out when the run ends.
  */
final class Tracer {
  import Tracer.Span
  private val spans = mutable.ArrayBuffer[Span]()
  private val values = mutable.ArrayBuffer[mutable.LinkedHashMap[String, Double]]()
  private val open = mutable.Stack[String]()

  /** Starts the next operation; later spans and counts belong to it. */
  def beginOp(): Unit = values += mutable.LinkedHashMap.empty

  private def current = values.last

  /** Times `body` as span `name`; its seconds add to the op's `<name>_s`. */
  def span[A](name: String)(body: => A): A = {
    val parent = open.headOption.getOrElse("")
    open.push(name)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open.pop()
      spans += Span(values.size - 1, name, parent, t0, t1)
      add(name + "_s", (t1 - t0) / 1e9)
    }
  }

  def set(name: String, v: Double): Unit = current(name) = v
  private def add(name: String, v: Double): Unit = current(name) = current.getOrElse(name, 0.0) + v

  /** Median over the operations that recorded `name`; 0 when none did
    * (the workload never entered that layer).
    */
  def median(name: String): Double = {
    val xs = values.flatMap(_.get(name))
    if (xs.isEmpty) 0.0 else Stats.median(xs.toSeq)
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val sb = new StringBuilder
    spans.foreach { s =>
      sb ++= s"""{"op":${s.op},"span":"${s.name}","parent":"${s.parent}","start_ns":${s.start},"end_ns":${s.end}}\n"""
    }
    values.zipWithIndex.foreach { case (m, op) =>
      m.foreach { case (k, v) => sb ++= s"""{"op":$op,"value":"$k","v":${Stats.num(v)}}\n""" }
    }
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  private final case class Span(op: Int, name: String, parent: String, start: Long, end: Long)

  /** `body`, as span `name` when tracing. */
  def maybe[A](tr: Option[Tracer], name: String)(body: => A): A = tr.fold(body)(_.span(name)(body))
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** A JSON number with all its digits. */
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)
}
